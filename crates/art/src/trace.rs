//! Traversal tracing: the instrumentation interface between the functional
//! ART and the platform simulators.
//!
//! Every traced tree operation reports, through a [`Tracer`]:
//!
//! * each **node visit** with its footprint, the cache lines the access
//!   touches, and how many of the fetched bytes were actually useful
//!   (paper Fig. 2(c) measures exactly this ratio);
//! * the number of **partial-key matches** performed (Fig. 8);
//! * each **write lock** a ROWEX-style implementation would take (Fig. 7),
//!   including the extra parent lock on a node-type change (paper §II-A);
//! * the resolved **target** node — the payload of a DCART shortcut entry
//!   (paper §III-C). The paper's entry also records the target's parent,
//!   which the hardware needs to patch the entry when a node changes
//!   type; the arena keeps node ids stable across such changes, so no
//!   host code needs the parent and the tracer reports none.

use crate::node::{NodeId, NodeType};

/// What kind of node a visit touched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VisitKind {
    /// An inner node of the given adaptive layout.
    Inner(NodeType),
    /// A leaf node.
    Leaf,
}

/// One node access during a traversal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeVisit {
    /// The node's stable arena address.
    pub node: NodeId,
    /// Leaf or inner (with layout).
    pub kind: VisitKind,
    /// Total in-memory size of the node in bytes.
    pub footprint: u32,
    /// Number of 64-byte cache lines the access touches on a cache-miss
    /// path: header/prefix plus only the slots the lookup actually reads.
    pub lines: u32,
    /// Bytes of the fetched lines that the operation actually consumed
    /// (prefix bytes compared + key byte + child pointer).
    pub useful_bytes: u32,
}

/// Observer for traced tree operations.
///
/// All methods have empty default bodies, so a tracer only overrides what it
/// needs. [`NoopTracer`] implements nothing and compiles away entirely.
pub trait Tracer {
    /// A node was fetched and examined.
    fn visit(&mut self, visit: NodeVisit) {
        let _ = visit;
    }

    /// `count` partial-key comparisons were performed (prefix bytes plus
    /// child-slot searches).
    fn partial_key_matches(&mut self, count: u32) {
        let _ = count;
    }

    /// A ROWEX-style implementation would write-lock `node` here.
    fn lock(&mut self, node: NodeId) {
        let _ = node;
    }

    /// The operation resolved to `target`: the leaf it read, wrote or
    /// removed.
    fn target(&mut self, target: NodeId) {
        let _ = target;
    }
}

/// A tracer that records nothing; the zero-cost default.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// A tracer that records everything into an [`OpTrace`], reusable across
/// operations via [`OpTrace::clear`].
#[derive(Clone, Default, Debug)]
pub struct RecordingTracer {
    /// The accumulated trace.
    pub trace: OpTrace,
}

impl RecordingTracer {
    /// Creates an empty recording tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the accumulated trace so the tracer can be reused.
    pub fn clear(&mut self) {
        self.trace.clear();
    }
}

impl Tracer for RecordingTracer {
    fn visit(&mut self, visit: NodeVisit) {
        self.trace.visits.push(visit);
    }

    fn partial_key_matches(&mut self, count: u32) {
        self.trace.partial_key_matches += u64::from(count);
    }

    fn lock(&mut self, node: NodeId) {
        self.trace.locks.push(node);
    }

    fn target(&mut self, target: NodeId) {
        self.trace.target = Some(target);
    }
}

/// Complete record of a single traced operation.
#[derive(Clone, Default, Debug)]
pub struct OpTrace {
    /// Every node fetched, in traversal order.
    pub visits: Vec<NodeVisit>,
    /// Total partial-key comparisons.
    pub partial_key_matches: u64,
    /// Nodes a lock-based implementation would write-lock.
    pub locks: Vec<NodeId>,
    /// Resolved target node.
    pub target: Option<NodeId>,
}

impl OpTrace {
    /// Resets the trace for reuse without deallocating.
    pub fn clear(&mut self) {
        self.visits.clear();
        self.partial_key_matches = 0;
        self.locks.clear();
        self.target = None;
    }
}
