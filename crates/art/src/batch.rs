//! Level-wise (level-synchronous) batched traversal.
//!
//! Per-op traversal walks each key root-to-leaf independently, re-fetching
//! hot upper-level nodes once per op. Under the paper's skew observation
//! (Fig. 3: ≥96.65 % of traversals touch ≤5 % of nodes) that is the
//! dominant redundant work. This module advances a whole batch one tree
//! level per **wave** instead — the FPGA B+tree batch-search shape
//! (Tzschoppe et al.): group the surviving ops by their current node, load
//! and search each node once per wave, and re-bucket the survivors for the
//! next wave.
//!
//! The output is observationally identical to running
//! [`Art::locate_leaf`] per op with a recording tracer: per-op visit
//! sequences (in traversal order, with identical [`NodeVisit`] contents),
//! partial-key-match counts, and resolved targets. Only the
//! *node load count* changes — one load per `(node, wave)` group instead of
//! one per op.
//!
//! This is a standalone batch locate over a frozen tree; the batch
//! executor no longer drives it. Its reads interleave with writes, which
//! cut every wave short, so it hides its traversals' misses with
//! [descent hints](crate::DescentHint) instead.

use crate::node::{Node, NodeId};
use crate::trace::NodeVisit;
use crate::tree::visit_record;
use crate::{Art, Key};

/// One op's position in the current wave: the node it is about to examine
/// and how far into its key the traversal has advanced. Sixteen bytes,
/// which matters for the per-wave push/group/copy traffic.
///
/// The running partial-key-match count rides in the entry so `outcomes`
/// is written once per op at its terminal step, not read-modified on
/// every advancement (a scattered RMW per step across a 200 KB array).
#[derive(Clone, Copy, Debug)]
struct WaveEntry {
    /// Node to examine this wave.
    node: NodeId,
    /// Index of the op (and its key) in the batch.
    op: u32,
    /// Key bytes consumed so far.
    depth: u32,
    /// Partial-key comparisons accumulated on the path so far.
    pkm: u32,
}

/// Terminal result for one op.
#[derive(Clone, Copy, Default, Debug)]
struct Outcome {
    /// Total partial-key comparisons, as a per-op tracer would count them.
    pkm: u64,
    /// The leaf when the key was found, like [`Art::locate_leaf`].
    target: Option<NodeId>,
}

/// Reusable scratch state for [`Art::locate_leaves_level_wise`].
///
/// Holds the wave frontiers and the per-op results of the last call; all
/// buffers are retained across calls so steady-state batches allocate
/// nothing.
#[derive(Clone, Default, Debug)]
pub struct LevelWiseScratch {
    /// Ops still traversing, grouped by current node (sorted by node, op).
    frontier: Vec<WaveEntry>,
    /// Survivors being collected for the next wave.
    next: Vec<WaveEntry>,
    /// Visits tagged with their op, appended in wave-major order (each op
    /// appears at most once per wave, waves in depth order) — a counting
    /// placement recovers each op's visit sequence without sorting.
    paths: Vec<(u32, NodeVisit)>,
    /// Flattened per-op visit sequences (indexed through `ranges`).
    visit_buf: Vec<NodeVisit>,
    /// Staging buffer for the counting group of one large run.
    group_buf: Vec<WaveEntry>,
    /// Per-op terminal results.
    outcomes: Vec<Outcome>,
    /// Per-op `(start, len)` into `visit_buf`.
    ranges: Vec<(u32, u32)>,
    /// Node loads performed: one per `(node, wave)` group.
    nodes_loaded: u64,
}

impl LevelWiseScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, ops: usize) {
        self.frontier.clear();
        self.next.clear();
        self.paths.clear();
        self.visit_buf.clear();
        self.outcomes.clear();
        self.outcomes.resize(ops, Outcome::default());
        self.ranges.clear();
        self.ranges.resize(ops, (0, 0));
        self.nodes_loaded = 0;
    }

    /// Visit sequence of op `i`, in traversal (root-to-leaf) order —
    /// identical to what a per-op recording tracer would have captured.
    pub fn visits(&self, i: usize) -> &[NodeVisit] {
        let (start, len) = self.ranges[i];
        &self.visit_buf[start as usize..(start + len) as usize]
    }

    /// Partial-key comparisons performed for op `i`.
    pub fn pkm(&self, i: usize) -> u64 {
        self.outcomes[i].pkm
    }

    /// The leaf resolved for op `i`, or `None` if its key is absent — the
    /// [`Art::locate_leaf`] return value.
    pub fn target(&self, i: usize) -> Option<NodeId> {
        self.outcomes[i].target
    }

    /// Actual node loads performed (one per `(node, wave)` group). The
    /// level-wise win is `ops_advanced() / nodes_loaded()`.
    pub fn nodes_loaded(&self) -> u64 {
        self.nodes_loaded
    }

    /// Total op-level advancement steps (the sum of all per-op path
    /// lengths); equals the per-op mode's node load count.
    pub fn ops_advanced(&self) -> u64 {
        self.visit_buf.len() as u64
    }
}

/// Groups one run's survivors by their child node, keeping op order within
/// each group (entries arrive in op order; the grouping is stable).
///
/// Distinct branch bytes lead to distinct children, so grouping by the
/// branch byte (`key[depth - 1]`, the byte the parent dispatched on) is
/// grouping by node. Large runs — the skew-hot upper levels, where most
/// entries live — use a stable one-pass counting placement, linear instead
/// of `n log n`; small runs sort in place.
fn group_run(run: &mut [WaveEntry], keys: &[Key], buf: &mut Vec<WaveEntry>) {
    if run.len() < 2 {
        return;
    }
    if run.len() < 128 {
        // Ops are unique within a run, so the packed (node, op) key makes
        // the unstable sort order-preserving per group.
        run.sort_unstable_by_key(|e| (u64::from(e.node.index()) << 32) | u64::from(e.op));
        return;
    }
    let branch = |e: &WaveEntry| usize::from(keys[e.op as usize].as_bytes()[e.depth as usize - 1]);
    let mut counts = [0u32; 256];
    for e in run.iter() {
        counts[branch(e)] += 1;
    }
    let mut start = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = start;
        start += n;
    }
    // Snapshot the run (sequential memcpy), then place back into it.
    buf.clear();
    buf.extend_from_slice(run);
    for &e in buf.iter() {
        let slot = &mut counts[branch(&e)];
        run[*slot as usize] = e;
        *slot += 1;
    }
}

impl<V> Art<V> {
    /// Walks every key in `keys` to its leaf in level-synchronous waves,
    /// leaving per-op visit sequences, partial-key-match counts, and
    /// resolved targets in `scratch`.
    ///
    /// Observationally identical to calling [`Art::locate_leaf`] with a
    /// recording tracer once per key (same visits in the same per-op order,
    /// same counts, same targets); the only difference is that each
    /// `(node, wave)` group costs one node load instead of one per op.
    pub fn locate_leaves_level_wise(&self, keys: &[Key], scratch: &mut LevelWiseScratch) {
        scratch.reset(keys.len());
        let Some(root) = self.root() else { return };
        debug_assert!(u32::try_from(keys.len()).is_ok(), "batch larger than u32::MAX ops");
        // Wave 0: every op starts at the root — one group, already sorted
        // by (node, op) since ops are pushed in index order.
        scratch.frontier.extend((0..keys.len() as u32).map(|op| WaveEntry {
            node: root,
            op,
            depth: 0,
            pkm: 0,
        }));

        // How far ahead of the cursor to prefetch within a wave. Pushing
        // time (a whole wave early) overruns the fill buffers; a short
        // bounded window keeps several independent misses in flight —
        // the memory-level parallelism a per-op pointer chase cannot have.
        const PF_DIST: usize = 8;
        while !scratch.frontier.is_empty() {
            let cur = std::mem::take(&mut scratch.frontier);
            let mut i = 0;
            while i < cur.len() {
                let node_id = cur[i].node;
                // One load serves the whole (node, wave) group.
                let node = self.arena.get(node_id);
                scratch.nodes_loaded += 1;
                let run_start = scratch.next.len();
                while i < cur.len() && cur[i].node == node_id {
                    let entry = cur[i];
                    if let Some(ahead) = cur.get(i + PF_DIST) {
                        self.arena.prefetch(ahead.node);
                        crate::simd::prefetch(&keys[ahead.op as usize]);
                    }
                    i += 1;
                    let bytes = keys[entry.op as usize].as_bytes();
                    let depth = entry.depth as usize;
                    scratch.ranges[entry.op as usize].1 += 1;
                    match node {
                        Node::Leaf { key: leaf_key, .. } => {
                            scratch.paths.push((entry.op, visit_record(node_id, node, 0)));
                            let rest = bytes.len().saturating_sub(depth) as u32;
                            let out = &mut scratch.outcomes[entry.op as usize];
                            out.pkm = u64::from(entry.pkm) + u64::from(rest.max(1));
                            if leaf_key.as_bytes() == bytes {
                                out.target = Some(node_id);
                            }
                        }
                        Node::Inner(inner) => {
                            let rest = &bytes[depth..];
                            let m = crate::simd::common_prefix_len(&inner.prefix, rest);
                            scratch.paths.push((entry.op, visit_record(node_id, node, m as u32)));
                            let pkm = entry.pkm + m as u32 + 1;
                            let next_depth = depth + inner.prefix.len();
                            let survive = m == inner.prefix.len() && depth + m < bytes.len();
                            let child =
                                if survive { inner.children.find(bytes[next_depth]) } else { None };
                            let Some(child) = child else {
                                // Prefix mismatch, key exhausted, or no
                                // child for the next byte: terminal miss.
                                scratch.outcomes[entry.op as usize].pkm = u64::from(pkm);
                                continue;
                            };
                            // Overlap the child's memory latency with the
                            // rest of this wave (hint only).
                            self.arena.prefetch(child);
                            scratch.next.push(WaveEntry {
                                node: child,
                                op: entry.op,
                                depth: next_depth as u32 + 1,
                                pkm,
                            });
                        }
                    }
                }
                // Re-bucket this run's survivors: every node has exactly
                // one parent, so ops can only converge on a child from
                // within the *same* run — grouping the run groups the
                // whole next frontier, no global sort needed.
                group_run(&mut scratch.next[run_start..], keys, &mut scratch.group_buf);
            }
            scratch.frontier = std::mem::take(&mut scratch.next);
            scratch.next = {
                let mut spent = cur;
                spent.clear();
                spent
            };
        }

        // Recover per-op traversal order with a counting placement (no
        // sort): `paths` is wave-major, so per op its entries already
        // appear in wave (= depth) order; the prefix-summed lengths say
        // where each op's contiguous slice lives.
        let mut start = 0u32;
        for r in &mut scratch.ranges {
            r.0 = start;
            start += r.1;
        }
        if let Some(&(_, filler)) = scratch.paths.first() {
            scratch.visit_buf.resize(scratch.paths.len(), filler);
            // `ranges[op].0` doubles as the write cursor, then one fixup
            // pass restores the slice starts.
            for &(op, v) in &scratch.paths {
                let r = &mut scratch.ranges[op as usize];
                scratch.visit_buf[r.0 as usize] = v;
                r.0 += 1;
            }
            for r in &mut scratch.ranges {
                r.0 -= r.1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArtError, RecordingTracer};
    use rand::prelude::*;

    /// What per-op traversal observed for one key: the visit path, the
    /// partial-key-match count, and the target leaf.
    type PerOpResult = (Vec<NodeVisit>, u64, Option<NodeId>);

    /// Per-key reference results from the per-op traversal.
    fn per_op_reference(art: &Art<u64>, keys: &[Key]) -> Vec<PerOpResult> {
        keys.iter()
            .map(|k| {
                let mut t = RecordingTracer::new();
                let target = art.locate_leaf(k, &mut t);
                (t.trace.visits.clone(), t.trace.partial_key_matches, target)
            })
            .collect()
    }

    fn assert_identical(art: &Art<u64>, keys: &[Key]) {
        let reference = per_op_reference(art, keys);
        let mut scratch = LevelWiseScratch::new();
        art.locate_leaves_level_wise(keys, &mut scratch);
        let mut total_path_len = 0u64;
        for (i, (visits, pkm, target)) in reference.iter().enumerate() {
            assert_eq!(scratch.visits(i), visits.as_slice(), "op {i} visit sequence");
            assert_eq!(scratch.pkm(i), *pkm, "op {i} partial-key matches");
            assert_eq!(scratch.target(i), *target, "op {i} target");
            total_path_len += visits.len() as u64;
        }
        assert_eq!(scratch.ops_advanced(), total_path_len);
        assert!(
            scratch.nodes_loaded() <= total_path_len,
            "wave grouping must never load more than per-op: {} > {}",
            scratch.nodes_loaded(),
            total_path_len
        );
    }

    #[test]
    fn empty_tree_resolves_nothing() {
        let art: Art<u64> = Art::new();
        let keys = vec![Key::from_u64(1), Key::from_u64(2)];
        let mut scratch = LevelWiseScratch::new();
        art.locate_leaves_level_wise(&keys, &mut scratch);
        for i in 0..keys.len() {
            assert!(scratch.visits(i).is_empty());
            assert_eq!(scratch.pkm(i), 0);
            assert_eq!(scratch.target(i), None);
        }
        assert_eq!(scratch.nodes_loaded(), 0);
        assert_eq!(scratch.ops_advanced(), 0);
    }

    #[test]
    fn dense_ints_match_per_op() -> Result<(), ArtError> {
        let mut art = Art::new();
        for v in 0..2000u64 {
            art.insert(Key::from_u64(v * 3), v)?;
        }
        // Present keys, absent keys, and duplicates in one batch.
        let keys: Vec<Key> = (0..3000u64).map(|v| Key::from_u64(v % 2200 * 3 / 2)).collect();
        assert_identical(&art, &keys);
        Ok(())
    }

    #[test]
    fn skewed_strings_share_wave_loads() -> Result<(), ArtError> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut art = Art::new();
        let words: Vec<String> = (0..800)
            .map(|i| {
                let stem = ["data", "centric", "adaptive", "radix"][i % 4];
                format!("{stem}/{:06}", rng.gen_range(0..100_000u32))
            })
            .collect();
        for (i, w) in words.iter().enumerate() {
            let _ = art.insert(Key::from_str_bytes(w), i as u64);
        }
        // Zipf-ish hot set: most probes hit a few stems, so upper levels
        // form large wave groups.
        let keys: Vec<Key> = (0..4000)
            .map(|_| {
                let w = &words[rng.gen_range(0..words.len().min(40))];
                Key::from_str_bytes(w)
            })
            .collect();
        let reference = per_op_reference(&art, &keys);
        let mut scratch = LevelWiseScratch::new();
        art.locate_leaves_level_wise(&keys, &mut scratch);
        let total: u64 = reference.iter().map(|(v, _, _)| v.len() as u64).sum();
        assert_identical(&art, &keys);
        assert!(
            scratch.nodes_loaded() < total / 4,
            "hot-set batches must share node loads: {} loads for {} advances",
            scratch.nodes_loaded(),
            total
        );
        Ok(())
    }

    #[test]
    fn scratch_reuse_across_batches_is_clean() -> Result<(), ArtError> {
        let mut art = Art::new();
        for v in 0..500u64 {
            art.insert(Key::from_u64(v), v)?;
        }
        let mut scratch = LevelWiseScratch::new();
        // A big batch, then a small one: stale state must not leak.
        let big: Vec<Key> = (0..1000u64).map(Key::from_u64).collect();
        art.locate_leaves_level_wise(&big, &mut scratch);
        let small = vec![Key::from_u64(3), Key::from_u64(9999)];
        art.locate_leaves_level_wise(&small, &mut scratch);
        let reference = per_op_reference(&art, &small);
        for (i, (visits, pkm, target)) in reference.iter().enumerate() {
            assert_eq!(scratch.visits(i), visits.as_slice());
            assert_eq!(scratch.pkm(i), *pkm);
            assert_eq!(scratch.target(i), *target);
        }
        Ok(())
    }

    #[test]
    fn mutated_tree_still_matches() -> Result<(), ArtError> {
        // Removals create freed slots and shrunk layouts; the wave walk
        // must mirror per-op traversal over the mutated arena too.
        let mut art = Art::new();
        for v in 0..1200u64 {
            art.insert(Key::from_u64(v), v)?;
        }
        for v in (0..1200u64).step_by(3) {
            art.remove(&Key::from_u64(v));
        }
        let keys: Vec<Key> = (0..1500u64).map(Key::from_u64).collect();
        assert_identical(&art, &keys);
        Ok(())
    }
}
