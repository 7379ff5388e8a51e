//! The Adaptive Radix Tree: a single-writer, arena-backed ART with path
//! compression, lazy expansion, and the four adaptive node layouts.

use crate::arena::Arena;
use crate::inline::InlineVec;
use crate::node::{InnerNode, Node, NodeId, NodeType, HEADER_BYTES};
use crate::trace::{NodeVisit, NoopTracer, Tracer, VisitKind};
use crate::Key;

/// The inner nodes on a scan's current root-to-leaf path. Depth is bounded
/// by the key length (4–24 bytes in the workloads, less with path
/// compression), so the stack almost never spills to the heap.
type FrameStack = InlineVec<ScanFrame, 16>;

/// Errors returned by fallible tree operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ArtError {
    /// The inserted key is a strict prefix of an existing key (or vice
    /// versa). Radix trees require a prefix-free key set; use the
    /// [`Key`] constructors, which guarantee it.
    PrefixViolation,
    /// Bulk-load input was not strictly sorted (or contained duplicates).
    NotSortedUnique,
}

impl std::fmt::Display for ArtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtError::PrefixViolation => {
                f.write_str("key is a prefix of another key; key sets must be prefix-free")
            }
            ArtError::NotSortedUnique => {
                f.write_str("bulk-load input must be strictly sorted and duplicate-free")
            }
        }
    }
}

impl std::error::Error for ArtError {}

/// Per-layout node counts, for memory-efficiency reporting (paper Fig. 1).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub struct TypeHistogram {
    /// Number of N4 inner nodes.
    pub n4: usize,
    /// Number of N16 inner nodes.
    pub n16: usize,
    /// Number of N48 inner nodes.
    pub n48: usize,
    /// Number of N256 inner nodes.
    pub n256: usize,
    /// Number of leaves.
    pub leaves: usize,
}

impl TypeHistogram {
    /// Total number of inner nodes.
    pub fn inner_total(&self) -> usize {
        self.n4 + self.n16 + self.n48 + self.n256
    }
}

/// An Adaptive Radix Tree mapping prefix-free byte keys to values.
///
/// This is the substrate every engine in the reproduction operates on. It
/// implements the structure from Leis et al. (ICDE'13): four adaptive inner
/// layouts, pessimistic path compression (each inner node stores the full
/// byte run it compresses), and lazy expansion (leaves store complete keys).
///
/// # Examples
///
/// ```
/// use dcart_art::{Art, Key};
///
/// let mut art = Art::new();
/// art.insert(Key::from_u64(42), "answer")?;
/// assert_eq!(art.get(&Key::from_u64(42)), Some(&"answer"));
/// assert_eq!(art.len(), 1);
/// # Ok::<(), dcart_art::ArtError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Art<V> {
    pub(crate) arena: Arena<V>,
    root: Option<NodeId>,
    len: usize,
}

impl<V> Default for Art<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the longest common prefix of two byte slices, vectorized in
/// 16-byte strides where the target ISA allows (see [`crate::simd`]).
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    crate::simd::common_prefix_len(a, b)
}

/// Builds the visit record for an access to `node`.
pub(crate) fn visit_record<V>(id: NodeId, node: &Node<V>, prefix_compared: u32) -> NodeVisit {
    match node {
        Node::Leaf { key, .. } => {
            let footprint = HEADER_BYTES + key.len() as u32 + 8;
            NodeVisit {
                node: id,
                kind: VisitKind::Leaf,
                footprint,
                lines: footprint.div_ceil(64),
                useful_bytes: key.len() as u32 + 8,
            }
        }
        Node::Inner(inner) => {
            let ty = inner.children.node_type();
            let footprint = HEADER_BYTES + inner.prefix.len() as u32 + ty.payload_bytes();
            // Lines touched on a miss: the header+prefix line, plus the
            // slots the lookup actually reads. N4/N16 scan their compact
            // arrays (1–2 lines); N48 reads one index line and one child
            // line; N256 reads one child line.
            let lines = match ty {
                NodeType::N4 => 1,
                NodeType::N16 => 2,
                NodeType::N48 => 3,
                NodeType::N256 => 2,
            };
            NodeVisit {
                node: id,
                kind: VisitKind::Inner(ty),
                footprint,
                lines,
                // The traversal consumes: compared prefix bytes, the 1-byte
                // partial key, and one 8-byte child pointer.
                useful_bytes: prefix_compared + 1 + 8,
            }
        }
    }
}

impl<V> Art<V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Art { arena: Arena::new(), root: None, len: 0 }
    }

    /// Number of key–value pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of nodes (inner + leaf) currently allocated.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// The root node id, if the tree is non-empty. Simulators use this as
    /// the traversal entry point.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Checked node access by id, for simulators holding possibly stale
    /// ids (e.g. DCART shortcut entries). Returns `None` for freed slots.
    pub fn node(&self, id: NodeId) -> Option<&Node<V>> {
        self.arena.try_get(id)
    }

    /// Per-layout node counts.
    pub fn type_histogram(&self) -> TypeHistogram {
        let mut h = TypeHistogram::default();
        for (_, node) in self.arena.iter() {
            match node {
                Node::Leaf { .. } => h.leaves += 1,
                Node::Inner(inner) => match inner.children.node_type() {
                    NodeType::N4 => h.n4 += 1,
                    NodeType::N16 => h.n16 += 1,
                    NodeType::N48 => h.n48 += 1,
                    NodeType::N256 => h.n256 += 1,
                },
            }
        }
        h
    }

    /// Total in-memory footprint of all nodes, in bytes.
    pub fn memory_footprint(&self) -> u64 {
        self.arena.iter().map(|(_, n)| u64::from(n.footprint())).sum()
    }

    /// Looks up `key`, returning a reference to its value.
    pub fn get(&self, key: &Key) -> Option<&V> {
        self.get_traced(key, &mut NoopTracer)
    }

    /// Looks up `key`, returning a mutable reference to its value.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcart_art::{Art, Key};
    ///
    /// let mut art = Art::new();
    /// art.insert(Key::from_u64(1), 10)?;
    /// if let Some(v) = art.get_mut(&Key::from_u64(1)) {
    ///     *v += 5;
    /// }
    /// assert_eq!(art.get(&Key::from_u64(1)), Some(&15));
    /// # Ok::<(), dcart_art::ArtError>(())
    /// ```
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut V> {
        let (leaf, _) = self.locate_leaf(key, &mut NoopTracer)?;
        match self.arena.get_mut(leaf) {
            Node::Leaf { value, .. } => Some(value),
            Node::Inner(_) => unreachable!("locate_leaf returned inner node"),
        }
    }

    /// Looks up `key`, reporting every node access to `tracer`.
    pub fn get_traced<T: Tracer>(&self, key: &Key, tracer: &mut T) -> Option<&V> {
        let (leaf, _) = self.locate_leaf(key, tracer)?;
        match self.arena.get(leaf) {
            Node::Leaf { value, .. } => Some(value),
            Node::Inner(_) => unreachable!("locate_leaf returned inner node"),
        }
    }

    /// Walks the tree to the leaf holding `key`, tracing visits.
    ///
    /// Returns `(leaf, parent)` ids, or `None` if the key is absent.
    pub fn locate_leaf<T: Tracer>(
        &self,
        key: &Key,
        tracer: &mut T,
    ) -> Option<(NodeId, Option<NodeId>)> {
        let bytes = key.as_bytes();
        let mut cur = self.root?;
        let mut parent = None;
        let mut depth = 0usize;
        loop {
            match self.arena.get(cur) {
                node @ Node::Leaf { key: leaf_key, .. } => {
                    tracer.visit(visit_record(cur, node, 0));
                    let rest = bytes.len().saturating_sub(depth) as u32;
                    tracer.partial_key_matches(rest.max(1));
                    if leaf_key.as_bytes() == bytes {
                        tracer.target(cur, parent);
                        return Some((cur, parent));
                    }
                    return None;
                }
                node @ Node::Inner(inner) => {
                    let rest = &bytes[depth..];
                    let m = common_prefix_len(&inner.prefix, rest);
                    tracer.visit(visit_record(cur, node, m as u32));
                    tracer.partial_key_matches(m as u32 + 1);
                    if m < inner.prefix.len() || depth + m >= bytes.len() {
                        return None;
                    }
                    depth += inner.prefix.len();
                    let child = inner.children.find(bytes[depth])?;
                    // Overlap the next level's memory latency with the tail
                    // of this iteration (hint only; no effect on results).
                    self.arena.prefetch(child);
                    parent = Some(cur);
                    cur = child;
                    depth += 1;
                }
            }
        }
    }

    /// Reads the value stored at node `id`, if `id` is a live leaf holding
    /// exactly `key`.
    ///
    /// This is the DCART shortcut read path (paper §III-C): the SOU fetches
    /// the target node directly by the address cached in the shortcut table
    /// and validates the key, skipping the traversal. A stale or reused id
    /// fails validation and returns `None`.
    pub fn read_leaf(&self, id: NodeId, key: &Key) -> Option<&V> {
        match self.arena.try_get(id)? {
            Node::Leaf { key: k, value } if k == key => Some(value),
            _ => None,
        }
    }

    /// Hints that node `id` will be read soon ([`crate::simd::prefetch`]):
    /// for callers that know a shortcut target some operations before they
    /// [`read_leaf`](Art::read_leaf) it. Changes nothing observable; a
    /// stale or fabricated id is ignored.
    #[inline]
    pub fn prefetch_node(&self, id: NodeId) {
        self.arena.prefetch(id);
    }

    /// Replaces the value stored at node `id`, if `id` is a live leaf
    /// holding exactly `key`; returns the previous value.
    ///
    /// The DCART shortcut update path; see [`Art::read_leaf`].
    pub fn update_leaf(&mut self, id: NodeId, key: &Key, value: V) -> Option<V> {
        // Validate first via the checked accessor, then mutate.
        match self.arena.try_get(id)? {
            Node::Leaf { key: k, .. } if k == key => {}
            _ => return None,
        }
        match self.arena.get_mut(id) {
            Node::Leaf { value: v, .. } => Some(std::mem::replace(v, value)),
            Node::Inner(_) => unreachable!("validated as leaf above"),
        }
    }

    /// Builds the [`NodeVisit`] record for a direct access to node `id`
    /// (no partial-key prefix comparison), for simulators charging
    /// shortcut-path fetches. Returns `None` for freed ids.
    pub fn visit_for(&self, id: NodeId) -> Option<NodeVisit> {
        self.arena.try_get(id).map(|n| visit_record(id, n, 0))
    }

    /// Builds a tree from strictly sorted, duplicate-free key–value pairs
    /// in one bottom-up pass — `O(n · depth)` with no node growth or path
    /// splits, far faster than `n` point inserts for load phases.
    ///
    /// The resulting structure is identical to the insert-built tree (ART
    /// shape is insertion-order independent).
    ///
    /// # Errors
    ///
    /// Returns [`ArtError::NotSortedUnique`] if the input is not strictly
    /// ascending, or [`ArtError::PrefixViolation`] if any key is a prefix
    /// of another.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcart_art::{Art, Key};
    ///
    /// let pairs: Vec<(Key, u64)> = (0..1000u64).map(|v| (Key::from_u64(v), v)).collect();
    /// let art = Art::from_sorted(pairs)?;
    /// assert_eq!(art.len(), 1000);
    /// assert_eq!(art.get(&Key::from_u64(500)), Some(&500));
    /// # Ok::<(), dcart_art::ArtError>(())
    /// ```
    pub fn from_sorted(pairs: Vec<(Key, V)>) -> Result<Self, ArtError> {
        for w in pairs.windows(2) {
            let (a, b) = (w[0].0.as_bytes(), w[1].0.as_bytes());
            if a >= b {
                return Err(ArtError::NotSortedUnique);
            }
            if b.starts_with(a) {
                return Err(ArtError::PrefixViolation);
            }
        }
        let mut art = Art::new();
        art.len = pairs.len();
        if pairs.is_empty() {
            return Ok(art);
        }
        let mut slots: Vec<Option<(Key, V)>> = pairs.into_iter().map(Some).collect();
        let hi = slots.len();
        let root = art.build_sorted(&mut slots, 0, hi, 0)?;
        art.root = Some(root);
        Ok(art)
    }

    /// Recursively builds the subtree over `slots[lo..hi]` at `depth`.
    fn build_sorted(
        &mut self,
        slots: &mut [Option<(Key, V)>],
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> Result<NodeId, ArtError> {
        debug_assert!(lo < hi);
        if hi - lo == 1 {
            let (key, value) = slots[lo].take().expect("slot consumed once");
            return Ok(self.arena.alloc(Node::Leaf { key, value }));
        }
        // Sorted input: the common prefix of the whole range is the common
        // prefix of its extremes.
        let key_bytes = |slot: &Option<(Key, V)>| slot.as_ref().expect("live slot").0.clone();
        let first = key_bytes(&slots[lo]);
        let last = key_bytes(&slots[hi - 1]);
        let common = common_prefix_len(&first.as_bytes()[depth..], &last.as_bytes()[depth..]);
        let split = depth + common;
        if split >= first.len() {
            return Err(ArtError::PrefixViolation);
        }
        let mut inner = InnerNode::new(first.as_bytes()[depth..split].to_vec());
        let mut i = lo;
        while i < hi {
            let edge = slots[i].as_ref().expect("live slot").0.as_bytes()[split];
            let mut j = i + 1;
            while j < hi
                && slots[j].as_ref().expect("live slot").0.as_bytes().get(split) == Some(&edge)
            {
                j += 1;
            }
            let child = self.build_sorted(slots, i, j, split + 1)?;
            if inner.children.is_full() {
                inner.children.grow();
            }
            inner.children.add(edge, child);
            i = j;
        }
        Ok(self.arena.alloc(Node::Inner(inner)))
    }

    /// Inserts `key` → `value`, returning the previous value if the key was
    /// already present.
    ///
    /// # Errors
    ///
    /// Returns [`ArtError::PrefixViolation`] if `key` is a strict prefix of
    /// an existing key or an existing key is a strict prefix of `key`.
    pub fn insert(&mut self, key: Key, value: V) -> Result<Option<V>, ArtError> {
        self.insert_traced(key, value, &mut NoopTracer)
    }

    /// Inserts `key` → `value`, reporting node accesses and lock events to
    /// `tracer`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtError::PrefixViolation`] under the same conditions as
    /// [`Art::insert`].
    pub fn insert_traced<T: Tracer>(
        &mut self,
        key: Key,
        value: V,
        tracer: &mut T,
    ) -> Result<Option<V>, ArtError> {
        let Some(root) = self.root else {
            let leaf = self.arena.alloc(Node::Leaf { key, value });
            self.root = Some(leaf);
            self.len = 1;
            tracer.lock(leaf);
            tracer.target(leaf, None);
            return Ok(None);
        };

        let bytes = key.as_bytes().to_vec();
        let mut cur = root;
        // (parent id, edge byte into `cur`); `None` means `cur` is the root.
        let mut parent_edge: Option<(NodeId, u8)> = None;
        let mut depth = 0usize;

        loop {
            // Phase 1: inspect the current node immutably and decide.
            enum Step {
                ReplaceLeafValue,
                SplitLeaf { common: usize },
                SplitPrefix { m: usize },
                Descend { child: NodeId, prefix_len: usize },
                AddChild { prefix_len: usize },
                Violation,
            }
            let step = match self.arena.get(cur) {
                node @ Node::Leaf { key: leaf_key, .. } => {
                    tracer.visit(visit_record(cur, node, 0));
                    let lk = leaf_key.as_bytes();
                    if lk == bytes.as_slice() {
                        tracer.partial_key_matches((bytes.len() - depth).max(1) as u32);
                        Step::ReplaceLeafValue
                    } else {
                        let common = common_prefix_len(&lk[depth..], &bytes[depth..]);
                        tracer.partial_key_matches(common as u32 + 1);
                        if depth + common == lk.len() || depth + common == bytes.len() {
                            Step::Violation
                        } else {
                            Step::SplitLeaf { common }
                        }
                    }
                }
                node @ Node::Inner(inner) => {
                    let rest = &bytes[depth..];
                    let m = common_prefix_len(&inner.prefix, rest);
                    tracer.visit(visit_record(cur, node, m as u32));
                    tracer.partial_key_matches(m as u32 + 1);
                    if m < inner.prefix.len() {
                        if depth + m == bytes.len() {
                            Step::Violation
                        } else {
                            Step::SplitPrefix { m }
                        }
                    } else if depth + m == bytes.len() {
                        // Key ends exactly at this inner node.
                        Step::Violation
                    } else {
                        let next = depth + inner.prefix.len();
                        match inner.children.find(bytes[next]) {
                            Some(child) => Step::Descend { child, prefix_len: inner.prefix.len() },
                            None => Step::AddChild { prefix_len: inner.prefix.len() },
                        }
                    }
                }
            };

            // Phase 2: apply.
            match step {
                Step::Violation => return Err(ArtError::PrefixViolation),
                Step::Descend { child, prefix_len } => {
                    depth += prefix_len;
                    parent_edge = Some((cur, bytes[depth]));
                    cur = child;
                    depth += 1;
                }
                Step::ReplaceLeafValue => {
                    let old = match self.arena.get_mut(cur) {
                        Node::Leaf { value: v, .. } => std::mem::replace(v, value),
                        Node::Inner(_) => unreachable!("located leaf address holds a leaf"),
                    };
                    // Updating a leaf value is the CAS/lock point of an
                    // update operation.
                    tracer.lock(cur);
                    tracer.target(cur, parent_edge.map(|(p, _)| p));
                    return Ok(Some(old));
                }
                Step::SplitLeaf { common } => {
                    // Replace the leaf with a new N4 whose prefix is the
                    // shared byte run, holding the old and new leaves.
                    let old_leaf_byte = match self.arena.get(cur) {
                        Node::Leaf { key: lk, .. } => lk.as_bytes()[depth + common],
                        Node::Inner(_) => unreachable!("located leaf address holds a leaf"),
                    };
                    let new_byte = bytes[depth + common];
                    let new_leaf = self.arena.alloc(Node::Leaf { key, value });
                    let mut inner = InnerNode::new(bytes[depth..depth + common].to_vec());
                    inner.children.add(old_leaf_byte, cur);
                    inner.children.add(new_byte, new_leaf);
                    let new_inner = self.arena.alloc(Node::Inner(inner));
                    self.replace_slot(parent_edge, new_inner);
                    // The structural change locks the parent slot owner.
                    tracer.lock(parent_edge.map_or(new_inner, |(p, _)| p));
                    tracer.target(new_leaf, Some(new_inner));
                    self.len += 1;
                    return Ok(None);
                }
                Step::SplitPrefix { m } => {
                    // The compressed path diverges inside this node's
                    // prefix: split it into (new parent with prefix[..m])
                    // → {existing node with prefix[m+1..], new leaf}.
                    let (head, edge_old) = {
                        let inner = self.arena.get_mut(cur).expect_inner_mut();
                        let head: Vec<u8> = inner.prefix[..m].to_vec();
                        let edge_old = inner.prefix[m];
                        inner.prefix.drain(..=m);
                        (head, edge_old)
                    };
                    let edge_new = bytes[depth + m];
                    let new_leaf = self.arena.alloc(Node::Leaf { key, value });
                    let mut split = InnerNode::new(head);
                    split.children.add(edge_old, cur);
                    split.children.add(edge_new, new_leaf);
                    let split_id = self.arena.alloc(Node::Inner(split));
                    self.replace_slot(parent_edge, split_id);
                    tracer.lock(parent_edge.map_or(split_id, |(p, _)| p));
                    // Splitting a path is a structural change to `cur` too.
                    tracer.lock(cur);
                    tracer.target(new_leaf, Some(split_id));
                    self.len += 1;
                    return Ok(None);
                }
                Step::AddChild { prefix_len } => {
                    let edge = bytes[depth + prefix_len];
                    let new_leaf = self.arena.alloc(Node::Leaf { key, value });
                    let inner = self.arena.get_mut(cur).expect_inner_mut();
                    let before = inner.children.node_type();
                    if inner.children.is_full() {
                        inner.children.grow();
                        let after = inner.children.node_type();
                        tracer.node_type_change(cur, before, after);
                        // ROWEX: a type change additionally locks the parent.
                        if let Some((p, _)) = parent_edge {
                            tracer.lock(p);
                        }
                    }
                    let ok = inner.children.add(edge, new_leaf);
                    debug_assert!(ok);
                    tracer.lock(cur);
                    tracer.target(new_leaf, Some(cur));
                    self.len += 1;
                    return Ok(None);
                }
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        self.remove_traced(key, &mut NoopTracer)
    }

    /// Removes `key`, reporting node accesses and lock events to `tracer`.
    pub fn remove_traced<T: Tracer>(&mut self, key: &Key, tracer: &mut T) -> Option<V> {
        let bytes = key.as_bytes();
        let mut cur = self.root?;
        let mut grandparent: Option<(NodeId, u8)> = None;
        let mut parent_edge: Option<(NodeId, u8)> = None;
        let mut depth = 0usize;

        loop {
            match self.arena.get(cur) {
                node @ Node::Leaf { key: leaf_key, .. } => {
                    tracer.visit(visit_record(cur, node, 0));
                    tracer.partial_key_matches((bytes.len() - depth).max(1) as u32);
                    if leaf_key.as_bytes() != bytes {
                        return None;
                    }
                    let value = match self.arena.free(cur) {
                        Node::Leaf { value, .. } => value,
                        Node::Inner(_) => unreachable!("remove target was matched as a leaf"),
                    };
                    self.len -= 1;
                    tracer.target(cur, parent_edge.map(|(p, _)| p));
                    match parent_edge {
                        None => self.root = None,
                        Some((parent, edge)) => {
                            tracer.lock(parent);
                            let inner = self.arena.get_mut(parent).expect_inner_mut();
                            inner.children.remove(edge);
                            self.fixup_after_remove(parent, grandparent, tracer);
                        }
                    }
                    return Some(value);
                }
                node @ Node::Inner(inner) => {
                    let rest = &bytes[depth..];
                    let m = common_prefix_len(&inner.prefix, rest);
                    tracer.visit(visit_record(cur, node, m as u32));
                    tracer.partial_key_matches(m as u32 + 1);
                    if m < inner.prefix.len() || depth + m >= bytes.len() {
                        return None;
                    }
                    depth += inner.prefix.len();
                    let child = inner.children.find(bytes[depth])?;
                    grandparent = parent_edge;
                    parent_edge = Some((cur, bytes[depth]));
                    cur = child;
                    depth += 1;
                }
            }
        }
    }

    /// After removing a child from `node`: merge single-child inner nodes
    /// back into their child (restoring path compression) and shrink
    /// over-sized layouts.
    fn fixup_after_remove<T: Tracer>(
        &mut self,
        node: NodeId,
        parent_edge: Option<(NodeId, u8)>,
        tracer: &mut T,
    ) {
        let single = self.arena.get(node).expect_inner().children.single_child();
        if let Some((edge, only_child)) = single {
            // Merge: the inner node has one child left, so its partial key
            // byte folds into the child's prefix (or the child leaf simply
            // takes its place — leaves carry full keys).
            let freed = self.arena.free(node);
            let freed_prefix = match freed {
                Node::Inner(inner) => inner.prefix,
                Node::Leaf { .. } => unreachable!("path-compression merge frees an inner node"),
            };
            if let Node::Inner(child_inner) = self.arena.get_mut(only_child) {
                let mut merged = freed_prefix;
                merged.push(edge);
                merged.append(&mut child_inner.prefix);
                child_inner.prefix = merged;
                tracer.lock(only_child);
            }
            self.replace_slot(parent_edge, only_child);
            if let Some((gp, _)) = parent_edge {
                tracer.lock(gp);
            }
            return;
        }
        let inner = self.arena.get_mut(node).expect_inner_mut();
        let before = inner.children.node_type();
        if inner.children.shrink() {
            let after = inner.children.node_type();
            tracer.node_type_change(node, before, after);
            if let Some((p, _)) = parent_edge {
                tracer.lock(p);
            }
        }
    }

    /// Points the slot identified by `parent_edge` (or the root) at `new`.
    fn replace_slot(&mut self, parent_edge: Option<(NodeId, u8)>, new: NodeId) {
        match parent_edge {
            None => self.root = Some(new),
            Some((parent, edge)) => {
                let inner = self.arena.get_mut(parent).expect_inner_mut();
                inner.children.replace(edge, new);
            }
        }
    }

    /// Returns the smallest key and its value.
    pub fn min(&self) -> Option<(&Key, &V)> {
        self.extreme(true)
    }

    /// Returns the largest key and its value.
    pub fn max(&self) -> Option<(&Key, &V)> {
        self.extreme(false)
    }

    fn extreme(&self, min: bool) -> Option<(&Key, &V)> {
        let mut cur = self.root?;
        loop {
            match self.arena.get(cur) {
                Node::Leaf { key, value } => return Some((key, value)),
                Node::Inner(inner) => {
                    let next =
                        if min { inner.children.min_child() } else { inner.children.max_child() };
                    cur = next.expect("inner node with no children").1;
                }
            }
        }
    }

    /// Iterates all `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> Range<'_, V> {
        self.range(&[][..], None)
    }

    /// Iterates `(key, value)` pairs with `start <= key < end` in ascending
    /// order. `end = None` means unbounded above.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcart_art::{Art, Key};
    ///
    /// let mut art = Art::new();
    /// for v in 0..10u64 {
    ///     art.insert(Key::from_u64(v), v)?;
    /// }
    /// let hits: Vec<u64> = art
    ///     .range(Key::from_u64(3).as_bytes(), Some(Key::from_u64(7).as_bytes()))
    ///     .map(|(_, v)| *v)
    ///     .collect();
    /// assert_eq!(hits, vec![3, 4, 5, 6]);
    /// # Ok::<(), dcart_art::ArtError>(())
    /// ```
    pub fn range<'a>(&'a self, start: &[u8], end: Option<&[u8]>) -> Range<'a, V> {
        let mut cursor = ScanCursor::new();
        cursor.reset(self);
        Range { tree: self, cursor, start: start.to_vec(), end: end.map(<[u8]>::to_vec) }
    }

    /// Collects up to `limit` consecutive `(key, value)` pairs starting at
    /// the smallest key `>= start`, reporting every node fetched (inner
    /// and leaf) to `tracer`.
    ///
    /// This is the traced path for range-scan operations: the simulators
    /// charge a scan for exactly the nodes a hardware walker would fetch -
    /// the descent to the start position plus every subtree node the scan
    /// passes through.
    pub fn scan_traced<T: Tracer>(
        &self,
        start: &[u8],
        limit: usize,
        tracer: &mut T,
    ) -> Vec<(&Key, &V)> {
        let mut out = Vec::new();
        self.scan_traced_into(start, limit, tracer, &mut out);
        out
    }

    /// [`scan_traced`](Art::scan_traced) into a caller-provided buffer:
    /// `out` is cleared and refilled, keeping its allocation. The variant
    /// for callers that scan in a loop. One [`ScanCursor`] pass: a descent
    /// to `start` plus the leaves the scan returns, no heap allocation.
    pub fn scan_traced_into<'a, T: Tracer>(
        &'a self,
        start: &[u8],
        limit: usize,
        tracer: &mut T,
        out: &mut Vec<(&'a Key, &'a V)>,
    ) {
        out.clear();
        if limit == 0 {
            return;
        }
        let mut cursor = ScanCursor::new();
        cursor.reset(self);
        while let Some(item) = cursor.next(self, start, tracer) {
            out.push(item);
            if out.len() >= limit {
                break;
            }
        }
    }
}

impl Art<u64> {
    /// Bulk-loads borrowed keys in order of appearance, assigning each its
    /// position index as the value — the load phase shared by every
    /// executor in the reproduction (the record id is the key's rank in
    /// the workload's key file).
    ///
    /// Takes an iterator of *borrows* and clones each key into its leaf: a
    /// 24-byte copy for an inline key, a reference-count bump for a
    /// spilled one. Returns the number of keys inserted.
    ///
    /// # Errors
    ///
    /// Returns [`ArtError::PrefixViolation`] as [`Art::insert`] does; keys
    /// inserted before the offending one remain in the tree.
    pub fn load_indexed<'a, I>(&mut self, keys: I) -> Result<usize, ArtError>
    where
        I: IntoIterator<Item = &'a Key>,
    {
        let mut count = 0usize;
        for (i, key) in keys.into_iter().enumerate() {
            self.insert(key.clone(), i as u64)?;
            count += 1;
        }
        Ok(count)
    }
}

/// One inner node on a scan's current path; its children are consumed
/// lazily, one [`Children::next_from`](crate::node::Children::next_from)
/// step at a time.
#[derive(Clone, Copy, Default, Debug)]
struct ScanFrame {
    node: NodeId,
    /// Smallest edge byte not yet tried; 256 once the node is exhausted.
    next: u16,
    /// `Some(d)` while the path down to this node's children equals
    /// `start[..d]` and no child has been taken yet: the first child sits
    /// at or above `start[d]` (`next` starts there, which prunes the
    /// subtrees wholly below `start`) and only the child *at* `start[d]`
    /// stays on the boundary. `None` once the path is past `start`: every
    /// key below qualifies and no more bytes are compared.
    boundary: Option<usize>,
}

/// A resumable traced range scan: the pre-order walk of
/// [`Art::scan_traced`], suspended at every key it yields.
///
/// The cursor holds an explicit stack of `(inner node, next child)` frames
/// and nothing borrowed, so a caller that scans in a loop keeps one around
/// and pays no allocation per scan; [`next`](ScanCursor::next) takes the
/// tree and the start key on every call, and both must be the ones the
/// scan began with. Nodes are reported to the tracer exactly when a
/// hardware walker would fetch them: subtrees wholly below `start` are
/// never entered, and path bytes are compared against `start` only while
/// the walk is still on the start boundary.
///
/// # Examples
///
/// ```
/// use dcart_art::{Art, Key, NoopTracer, ScanCursor};
///
/// let art: Art<u64> = (0..10u64).map(|v| (Key::from_u64(v), v)).collect();
/// let start = Key::from_u64(7);
/// let mut cursor = ScanCursor::new();
/// cursor.reset(&art);
/// let mut seen = Vec::new();
/// while let Some((_, &v)) = cursor.next(&art, start.as_bytes(), &mut NoopTracer) {
///     seen.push(v);
/// }
/// assert_eq!(seen, vec![7, 8, 9]);
/// ```
#[derive(Clone, Debug)]
pub struct ScanCursor {
    /// The root, until the first `next` enters it.
    root: Option<NodeId>,
    frames: FrameStack,
    visits: usize,
    matches: u64,
}

impl Default for ScanCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanCursor {
    /// A cursor over nothing; [`reset`](ScanCursor::reset) points it at a
    /// tree.
    pub fn new() -> Self {
        ScanCursor { root: None, frames: FrameStack::new(), visits: 0, matches: 0 }
    }

    /// Rewinds to the root of `tree`, keeping the frame storage.
    pub fn reset<V>(&mut self, tree: &Art<V>) {
        self.root = tree.root;
        self.frames.clear();
        self.visits = 0;
        self.matches = 0;
    }

    /// `(node visits, partial-key matches)` reported since the last
    /// [`reset`](ScanCursor::reset). Read right after
    /// [`next`](ScanCursor::next) yields its `c`-th key, this is exactly
    /// what `scan_traced(start, c)` reports in total: the watermark that
    /// lets a caller who read ahead charge only for the keys it consumed.
    pub fn watermark(&self) -> (usize, u64) {
        (self.visits, self.matches)
    }

    /// Advances to the next key `>= start` in ascending order, reporting
    /// every node fetched on the way to `tracer`.
    pub fn next<'a, V, T: Tracer>(
        &mut self,
        tree: &'a Art<V>,
        start: &[u8],
        tracer: &mut T,
    ) -> Option<(&'a Key, &'a V)> {
        if let Some(root) = self.root.take() {
            if let Some(item) = self.enter(tree, root, Some(0), start, tracer) {
                return Some(item);
            }
        }
        while let Some(top) = self.frames.last_mut() {
            let children = &tree.arena.get(top.node).expect_inner().children;
            let child = u8::try_from(top.next).ok().and_then(|from| children.next_from(from));
            let Some((edge, child)) = child else {
                self.frames.pop();
                continue;
            };
            top.next = u16::from(edge) + 1;
            // Later siblings lie strictly above `start[d]`: only this
            // first child can still be on the boundary.
            let boundary = top.boundary.take().filter(|&d| edge == start[d]).map(|d| d + 1);
            if let Some(item) = self.enter(tree, child, boundary, start, tracer) {
                return Some(item);
            }
        }
        None
    }

    /// Fetches node `id`, reached along a path that equals `start[..d]`
    /// (`boundary == Some(d)`) or is already past `start` (`None`): yields
    /// a qualifying leaf, or pushes an inner node's frame.
    fn enter<'a, V, T: Tracer>(
        &mut self,
        tree: &'a Art<V>,
        id: NodeId,
        boundary: Option<usize>,
        start: &[u8],
        tracer: &mut T,
    ) -> Option<(&'a Key, &'a V)> {
        match tree.arena.get(id) {
            node @ Node::Leaf { key, value } => {
                tracer.visit(visit_record(id, node, 0));
                self.visits += 1;
                (boundary.is_none() || key.as_bytes() >= start).then_some((key, value))
            }
            node @ Node::Inner(inner) => {
                let boundary = match boundary {
                    None => None,
                    Some(d) => {
                        let rest = &start[d..];
                        let m = inner.prefix.len().min(rest.len());
                        match inner.prefix[..m].cmp(&rest[..m]) {
                            // Every key below is `< start`: not fetched.
                            std::cmp::Ordering::Less => return None,
                            std::cmp::Ordering::Greater => None,
                            // Still on the boundary unless `start` ended
                            // inside the prefix.
                            std::cmp::Ordering::Equal => (m < rest.len()).then_some(d + m),
                        }
                    }
                };
                let compared = inner.prefix.len() as u32;
                tracer.visit(visit_record(id, node, compared));
                tracer.partial_key_matches(compared + 1);
                self.visits += 1;
                self.matches += u64::from(compared) + 1;
                let next = boundary.map_or(0, |d| u16::from(start[d]));
                self.frames.push(ScanFrame { node: id, next, boundary });
                None
            }
        }
    }
}

/// Ordered iterator over a key range of an [`Art`].
///
/// Produced by [`Art::range`] and [`Art::iter`]: an untraced
/// [`ScanCursor`] walk that stops at the first key `>= end`.
pub struct Range<'a, V> {
    tree: &'a Art<V>,
    cursor: ScanCursor,
    start: Vec<u8>,
    end: Option<Vec<u8>>,
}

impl<V: std::fmt::Debug> std::fmt::Debug for Range<'_, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Range")
            .field("start", &self.start)
            .field("end", &self.end)
            .finish_non_exhaustive()
    }
}

impl<'a, V> Iterator for Range<'a, V> {
    type Item = (&'a Key, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, value) = self.cursor.next(self.tree, &self.start, &mut NoopTracer)?;
        if self.end.as_deref().is_some_and(|end| key.as_bytes() >= end) {
            // Keys ascend, so everything after this one is out of range
            // too; dropping the frames keeps the iterator fused.
            self.cursor.frames.clear();
            return None;
        }
        Some((key, value))
    }
}

impl<V> FromIterator<(Key, V)> for Art<V> {
    /// Builds a tree from key–value pairs.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not prefix-free; use [`Art::insert`] to handle
    /// the error instead.
    fn from_iter<I: IntoIterator<Item = (Key, V)>>(iter: I) -> Self {
        let mut art = Art::new();
        for (k, v) in iter {
            art.insert(k, v).expect("keys must be prefix-free");
        }
        art
    }
}

impl<V> Extend<(Key, V)> for Art<V> {
    /// Inserts all pairs.
    ///
    /// # Panics
    ///
    /// Panics if a key violates prefix-freedom.
    fn extend<I: IntoIterator<Item = (Key, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v).expect("keys must be prefix-free");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key::from_u64(v)
    }

    #[test]
    fn empty_tree() {
        let art: Art<u64> = Art::new();
        assert!(art.is_empty());
        assert_eq!(art.get(&k(1)), None);
        assert_eq!(art.min(), None);
        assert_eq!(art.iter().count(), 0);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut art = Art::new();
        for v in 0..1000u64 {
            assert_eq!(art.insert(k(v * 7919), v).unwrap(), None);
        }
        assert_eq!(art.len(), 1000);
        for v in 0..1000u64 {
            assert_eq!(art.get(&k(v * 7919)), Some(&v));
        }
        assert_eq!(art.get(&k(1)), None);
    }

    #[test]
    fn insert_replaces_value() {
        let mut art = Art::new();
        assert_eq!(art.insert(k(5), "a").unwrap(), None);
        assert_eq!(art.insert(k(5), "b").unwrap(), Some("a"));
        assert_eq!(art.get(&k(5)), Some(&"b"));
        assert_eq!(art.len(), 1);
    }

    #[test]
    fn dense_keys_grow_all_layouts() {
        let mut art = Art::new();
        for v in 0..100_000u64 {
            art.insert(k(v), v).unwrap();
        }
        let h = art.type_histogram();
        assert!(h.n256 > 0, "dense keys must create N256 nodes: {h:?}");
        assert_eq!(h.leaves, 100_000);
        for v in (0..100_000u64).step_by(997) {
            assert_eq!(art.get(&k(v)), Some(&v));
        }
    }

    #[test]
    fn prefix_violation_detected() {
        let mut art = Art::new();
        art.insert(Key::from_raw(vec![1, 2, 3]), 0).unwrap();
        assert_eq!(art.insert(Key::from_raw(vec![1, 2]), 1), Err(ArtError::PrefixViolation));
        assert_eq!(art.insert(Key::from_raw(vec![1, 2, 3, 4]), 1), Err(ArtError::PrefixViolation));
        // The tree is unchanged by the failed inserts.
        assert_eq!(art.len(), 1);
        assert_eq!(art.get(&Key::from_raw(vec![1, 2, 3])), Some(&0));
    }

    #[test]
    fn prefix_violation_inside_compressed_path() {
        let mut art = Art::new();
        art.insert(Key::from_raw(vec![1, 2, 3, 4, 5]), 0).unwrap();
        art.insert(Key::from_raw(vec![1, 2, 3, 4, 6]), 1).unwrap();
        // Ends in the middle of the shared prefix path.
        assert_eq!(art.insert(Key::from_raw(vec![1, 2, 3]), 2), Err(ArtError::PrefixViolation));
        // Ends exactly at the inner node's branch point.
        assert_eq!(art.insert(Key::from_raw(vec![1, 2, 3, 4]), 2), Err(ArtError::PrefixViolation));
    }

    #[test]
    fn remove_returns_value_and_shrinks() {
        let mut art = Art::new();
        for v in 0..500u64 {
            art.insert(k(v), v).unwrap();
        }
        for v in (0..500u64).step_by(2) {
            assert_eq!(art.remove(&k(v)), Some(v));
        }
        assert_eq!(art.len(), 250);
        for v in 0..500u64 {
            let expect = (v % 2 == 1).then_some(v);
            assert_eq!(art.get(&k(v)).copied(), expect);
        }
        assert_eq!(art.remove(&k(0)), None);
    }

    #[test]
    fn remove_all_empties_tree_and_arena() {
        let mut art = Art::new();
        for v in 0..200u64 {
            art.insert(k(v * 3), v).unwrap();
        }
        for v in 0..200u64 {
            assert_eq!(art.remove(&k(v * 3)), Some(v));
        }
        assert!(art.is_empty());
        assert_eq!(art.node_count(), 0, "all nodes must be freed");
        assert_eq!(art.root(), None);
    }

    #[test]
    fn remove_merges_paths_back() {
        let mut art = Art::new();
        art.insert(k(0x0102030405060708), 1).unwrap();
        art.insert(k(0x0102030405060709), 2).unwrap();
        art.insert(k(0x01020304050607FF), 3).unwrap();
        let nodes_with_three = art.node_count();
        art.remove(&k(0x0102030405060709)).unwrap();
        art.remove(&k(0x01020304050607FF)).unwrap();
        // A single key needs a single leaf: path compression must collapse
        // the intermediate inner nodes.
        assert_eq!(art.node_count(), 1);
        assert!(nodes_with_three > 1);
        assert_eq!(art.get(&k(0x0102030405060708)), Some(&1));
    }

    #[test]
    fn min_max() {
        let mut art = Art::new();
        for v in [500u64, 3, 99999, 42] {
            art.insert(k(v), v).unwrap();
        }
        assert_eq!(art.min().map(|(_, v)| *v), Some(3));
        assert_eq!(art.max().map(|(_, v)| *v), Some(99999));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut art = Art::new();
        let mut values: Vec<u64> = (0..300).map(|i| i * 2654435761 % 1_000_000).collect();
        for &v in &values {
            art.insert(k(v), v).unwrap();
        }
        values.sort_unstable();
        values.dedup();
        let got: Vec<u64> = art.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, values);
    }

    #[test]
    fn range_bounds_are_half_open() {
        let mut art = Art::new();
        for v in 0..100u64 {
            art.insert(k(v), v).unwrap();
        }
        let got: Vec<u64> =
            art.range(k(10).as_bytes(), Some(k(20).as_bytes())).map(|(_, v)| *v).collect();
        assert_eq!(got, (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn range_with_string_keys() {
        let mut art = Art::new();
        for w in ["apple", "banana", "cherry", "damson", "elderberry"] {
            art.insert(Key::from_str_bytes(w), w).unwrap();
        }
        let start = Key::from_str_bytes("banana");
        let end = Key::from_str_bytes("damson");
        let got: Vec<&str> =
            art.range(start.as_bytes(), Some(end.as_bytes())).map(|(_, v)| *v).collect();
        assert_eq!(got, vec!["banana", "cherry"]);
    }

    #[test]
    fn string_keys_with_shared_prefixes() {
        let mut art = Art::new();
        let words = ["a", "ab", "abc", "abd", "b", "ba", "bab"];
        for (i, w) in words.iter().enumerate() {
            art.insert(Key::from_str_bytes(w), i).unwrap();
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(art.get(&Key::from_str_bytes(w)), Some(&i), "{w}");
        }
        let got: Vec<usize> = art.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6], "NUL-terminated strings sort correctly");
    }

    #[test]
    fn reachable_matches_allocated() {
        let mut art = Art::new();
        for v in 0..2000u64 {
            art.insert(k(v * 31), v).unwrap();
        }
        for v in 0..1000u64 {
            art.remove(&k(v * 62));
        }
        // `check_invariants` counts reachable nodes against the arena.
        let violations = art.check_invariants();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn memory_footprint_is_positive_and_scales() {
        let mut art = Art::new();
        art.insert(k(1), 1).unwrap();
        let one = art.memory_footprint();
        for v in 2..1000u64 {
            art.insert(k(v), v).unwrap();
        }
        assert!(art.memory_footprint() > one * 100);
    }

    #[test]
    fn adaptive_nodes_beat_traditional_radix_tree_memory() {
        // 10k sparse keys: a traditional radix tree would need 256 pointers
        // per inner node; ART's adaptive layouts must do much better.
        let mut art = Art::new();
        for v in 0..10_000u64 {
            art.insert(k(v.wrapping_mul(0x9E3779B97F4A7C15)), v).unwrap();
        }
        let h = art.type_histogram();
        let traditional: u64 = (h.inner_total() as u64) * u64::from(NodeType::N256.payload_bytes());
        // Compare inner-node memory only: leaves are identical either way.
        let leaf_bytes = (h.leaves as u64) * (u64::from(HEADER_BYTES) + 8 + 8);
        let adaptive = art.memory_footprint() - leaf_bytes;
        assert!(
            adaptive < traditional / 2,
            "adaptive {adaptive} should be well under traditional {traditional}"
        );
    }

    #[test]
    fn range_from_an_all_0xff_start_is_unbounded_above() {
        let mut art = Art::new();
        art.insert(Key::from_raw(vec![0xFF, 0xFF, 1]), 1).unwrap();
        art.insert(Key::from_raw(vec![0xFF, 0xFE, 2]), 2).unwrap();
        art.insert(Key::from_raw(vec![0x01, 0x01]), 3).unwrap();
        // A start of all 0xFF bytes has no lexicographic successor to bound
        // it: the open-ended scan must still skip every key below it.
        let got: Vec<i32> = art.range(&[0xFF, 0xFF], None).map(|(_, v)| *v).collect();
        assert_eq!(got, vec![1]);
        let got: Vec<i32> = art.range(&[0xFF], None).map(|(_, v)| *v).collect();
        assert_eq!(got, vec![2, 1]);
    }

    #[test]
    fn from_sorted_equals_insert_built() {
        let mut values: Vec<u64> = (0..5_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        values.sort_unstable();
        values.dedup();
        let pairs: Vec<(Key, u64)> = values.iter().map(|&v| (Key::from_u64(v), v)).collect();
        let bulk = Art::from_sorted(pairs).unwrap();
        let mut incremental = Art::new();
        for &v in values.iter().rev() {
            incremental.insert(Key::from_u64(v), v).unwrap();
        }
        bulk.assert_invariants();
        // ART shape is insertion-order independent: identical structure.
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk.node_count(), incremental.node_count());
        assert_eq!(bulk.type_histogram(), incremental.type_histogram());
        assert_eq!(bulk.depth_histogram(), incremental.depth_histogram());
        let a: Vec<u64> = bulk.iter().map(|(_, v)| *v).collect();
        let b: Vec<u64> = incremental.iter().map(|(_, v)| *v).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn from_sorted_rejects_bad_input() {
        let unsorted = vec![(Key::from_u64(2), 0), (Key::from_u64(1), 0)];
        assert_eq!(Art::from_sorted(unsorted).unwrap_err(), ArtError::NotSortedUnique);
        let dup = vec![(Key::from_u64(1), 0), (Key::from_u64(1), 0)];
        assert_eq!(Art::from_sorted(dup).unwrap_err(), ArtError::NotSortedUnique);
        let prefixy = vec![(Key::from_raw(vec![1, 2]), 0), (Key::from_raw(vec![1, 2, 3]), 0)];
        assert_eq!(Art::from_sorted(prefixy).unwrap_err(), ArtError::PrefixViolation);
        let empty: Vec<(Key, u8)> = Vec::new();
        assert!(Art::from_sorted(empty).unwrap().is_empty());
    }

    #[test]
    fn from_iter_collects() {
        let art: Art<u64> = (0..50u64).map(|v| (k(v), v)).collect();
        assert_eq!(art.len(), 50);
        assert_eq!(art.get(&k(49)), Some(&49));
    }
}
