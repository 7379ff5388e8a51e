//! The data-centric Combine–Traverse–Trigger execution model (paper §II-C,
//! §III).
//!
//! This is the functional heart of DCART, shared by the software engine
//! (DCART-C) and the accelerator model (DCART):
//!
//! 1. **Combine** — each batch of concurrent operations is partitioned into
//!    disjoint prefix buckets by the [PCU](crate::pcu);
//! 2. **Traverse** — each bucket's operations resolve their target nodes,
//!    through the [shortcut table](crate::ShortcutTable) when possible and
//!    by (coalesced) tree traversal otherwise;
//! 3. **Trigger** — operations targeting the same node execute together
//!    under a single lock: the per-bucket *lock group* replaces per-op
//!    locking, which is where the Fig. 7 contention reduction comes from.
//!
//! # Parallel execution
//!
//! Buckets are prefix-disjoint, so each SOU owns a disjoint key range.
//! The executor mirrors that ownership on the host: every bucket gets its
//! own *shard* — subtree, shortcut-table shard, fault stream, and scratch
//! arenas — and a batch's shards run concurrently on a scoped worker pool
//! ([`dcart_engine::par_for_each_mut`], sized by [`ExecOpts::threads`]).
//! How a run executes is fixed once, by the [`ExecOpts`] its caller passes
//! to [`execute_ctt`] or [`CttSession::from_pairs`]; nothing is read from
//! process-global state.
//! Workers record per-operation outcomes instead of talking to the
//! consumer directly; after the pool joins, a serial *replay* walks the
//! records in the canonical round-robin bucket order and emits the exact
//! event stream a single-threaded run produces. Shards share nothing, so
//! stats, digests, and report JSON are byte-identical at any thread count.
//!
//! Range scans are the one cross-bucket operation: they are deferred to the
//! end of their batch (weakly consistent: a scan observes the end-of-batch
//! state) and answered in one pass by a lazy k-way merge over per-leaf
//! scan cursors. The merge opens leaves by *prefix frontier* — only the
//! bucket owning the current combining prefix, since buckets partition the
//! prefixes modulo the bucket count — and charges each contributing leaf
//! the visits its cursor recorded up to the last key the merge consumed
//! from it; see `resolve_scans`.
//!
//! # Adaptive sub-sharding & heaviest-first claiming
//!
//! Fig. 3's node skew cuts both ways: under zipfian keys one *bucket* can
//! receive most of a batch, serializing the pool. Two mechanisms keep the
//! executor load-balanced without giving up determinism:
//!
//! * **Sub-sharding** — when a bucket's per-batch op count exceeds
//!   `split_threshold × batch_size` (see
//!   [`DcartConfig::split_threshold`]; unset never splits), the
//!   bucket splits on the *next* prefix byte into [`SPLIT_FANOUT`]
//!   sub-shards, each owning a disjoint subtree, a fresh shortcut shard, a
//!   derived-seed fault stream, and its own scratch arenas. Namespaced
//!   node ids carry the sub-shard index (the `sub == 0` layout is
//!   bit-identical to the unsplit one). Once the bucket cools — its op
//!   count stays at or below half the split threshold for
//!   [`MERGE_PATIENCE`] consecutive batches — the sub-shards re-merge
//!   through the same ordered merge and validating bulk load that produce
//!   the final tree. Split and merge decisions depend only on per-batch op
//!   counts, never on timing or thread identity, so the split schedule
//!   (and with it every observable) is reproducible.
//! * **Heaviest-first claiming** — with [`ExecOpts::steal`] set and more
//!   than one thread, the batch's shards go to the same pool as
//!   `&mut` references stably sorted by descending op count, so an idle
//!   worker always claims the heaviest shard left: greedy
//!   longest-processing-time list scheduling through the pool's one
//!   cursor. Shards share nothing, so the order changes wall-clock and
//!   nothing else.
//!
//! # Descent window
//!
//! By default ([`ExecOpts::mode`] = [`TraverseMode::LevelWise`]) each
//! shard keeps a small window of *descent hints* in flight beside the
//! shortcut lookahead: prefetch-only cursors ([`Art::hint_step`]) that walk
//! toward the leaf of an operation some operations ahead of it, one cache
//! miss per step, so the operation's own traversal finds its path
//! resident. Inserts and removes start theirs `DESCENT_AHEAD` operations
//! early; reads and updates start theirs when the shortcut lookahead finds
//! no entry for them. Operations nearer the front of the slice than that
//! get theirs before its first operation runs, so a short slice (a server
//! batch gives each shard about four) is hinted like a long one. Every
//! operation still traverses in place and in order, and a hint reads
//! nothing it checks, so the event stream, stats, digests and trees are
//! byte-identical to [`TraverseMode::PerOp`] (no window) at every worker
//! count.
//!
//! Consumers receive every resolved operation (with its *effective* node
//! visits — one direct fetch on a shortcut hit, the full path otherwise)
//! and every lock group, and attach platform-specific costs.

use std::collections::hash_map::Entry;

use dcart_art::node::Node;
use dcart_art::{Art, DescentHint, Key, NodeId, NodeVisit, Range, RecordingTracer, ScanCursor};
use dcart_engine::{par_for_each_mut, DegradationController, FaultInjector, FaultPlan, FaultSite};
use dcart_workloads::{KeySet, Op, OpKind};
use serde::Serialize;

use crate::config::DcartConfig;
use crate::error::DcartError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::pcu::{combine_batch_into, CombinedBatch};
use crate::shortcut::{hash_bucket as hash_bucket_of, ShortcutStats, ShortcutTable};

/// FNV-64's offset basis, the seed of every digest in this module.
const DIGEST_BASE: u64 = 0xcbf2_9ce4_8422_2325;

/// Whether a shard's Traverse stage prefetches the tree paths of the
/// operations ahead of it.
///
/// Both modes traverse every operation root-to-leaf, in order, and produce
/// byte-identical event streams, stats, digests, and trees (pinned by
/// tests); they differ only in wall-clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraverseMode {
    /// Traverse with the descent window: prefetch-only cursors
    /// ([`Art::hint_step`]) fetch the tree paths of the operations ahead
    /// while the current one runs. The default. The name is historical: it once meant level-wise
    /// batched reads, which the window replaced.
    LevelWise,
    /// Traverse without the descent window: the reference the default is
    /// tested against.
    PerOp,
}

/// How a CTT run executes on the host, fixed for the whole run: plain data
/// each caller passes explicitly (the binaries build it from
/// `--sou-threads` / `--steal`).
///
/// No field changes a result: stats, digests, event streams, trees and
/// the [`LoadReport`] are byte-identical at any thread count, steal
/// setting and traverse mode (pinned by tests); only wall-clock moves.
#[derive(Clone, Copy, Debug)]
pub struct ExecOpts {
    /// Worker threads the shard pool fans a batch over (`<= 1` runs the
    /// identical sharded code inline).
    pub threads: usize,
    /// Whether each shard's Traverse stage runs the descent window.
    pub mode: TraverseMode,
    /// Whether the pool's workers claim a batch's shards heaviest first
    /// (by op count) instead of in slot order. Only matters when
    /// `threads > 1`.
    pub steal: bool,
}

impl Default for ExecOpts {
    /// One thread, the descent window, slot-order claiming. One thread,
    /// not host parallelism: the harness already fans whole experiments over
    /// `--jobs` workers, and nesting both at full width would
    /// oversubscribe the host.
    fn default() -> Self {
        ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false }
    }
}

/// The hardware's Key_ID: the WAL's byte hash,
/// [`wal::checksum`](dcart_engine::wal::checksum), over the key bytes —
/// FNV-1a-shaped (xor a byte in, then multiply), seeded with FNV-64's
/// offset basis, but multiplying by 2^44 + 0x1b3 where FNV-64 uses
/// 2^40 + 0x1b3. Every digest, report and counter of the repository is
/// computed through it, and every byte on disk is checked with it, so
/// neither constant moves.
pub fn key_id(key: &Key) -> u64 {
    dcart_engine::wal::checksum(key.as_bytes())
}

/// One step of the [`key_id`] hash (xor, then multiply by 2^44 + 0x1b3)
/// over a whole word, used for the differential answer digests.
pub fn fold_digest(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x1000_0000_01b3)
}

/// Digest of a tree's full contents: one [`fold_digest`] chain over every
/// `(Key_ID, value)` pair in key order, starting from 0. This is the
/// end-state fingerprint the chaos and crash experiments compare — two
/// equal digests mean (with overwhelming probability) identical contents.
pub fn tree_digest(art: &Art<u64>) -> u64 {
    let mut h = 0u64;
    for (k, &v) in art.iter() {
        h = fold_digest(fold_digest(h, key_id(k)), v);
    }
    h
}

/// Digest of an optional value (read/update/insert/remove results).
fn digest_option(v: Option<u64>) -> u64 {
    match v {
        None => fold_digest(DIGEST_BASE, 0),
        Some(x) => fold_digest(fold_digest(DIGEST_BASE, 1), x),
    }
}

/// Bits of a namespaced node id that address the node within its shard;
/// the bits above carry the shard's namespace (bucket + sub-shard index).
/// 24 bits ≈ 16.7 M nodes per shard.
const SHARD_NODE_BITS: u32 = 24;

/// Sub-shards a hot bucket splits into: one per value of the next prefix
/// byte modulo this fanout. A power of two so the namespace packing below
/// stays exact.
pub const SPLIT_FANOUT: usize = 8;

/// Consecutive cool batches (op count at or below half the split
/// threshold) before a split bucket re-merges — hysteresis so a load
/// flickering around the threshold does not split/merge every batch.
pub const MERGE_PATIENCE: u32 = 2;

/// Largest bucket count the sub-shard namespace can address (5 bits of
/// bucket + 3 bits of sub-shard above the 24 node bits). Splitting is
/// disabled — never wrong, just static — for wider configurations; `sous`
/// tops out at 32 in the ablations anyway.
const MAX_SPLIT_BUCKETS: usize = 32;

/// Namespaces a shard-local node id with its bucket and sub-shard, so
/// visits and lock groups from different shards never alias in
/// consumer-side maps (the accelerator's tree buffer and contention
/// windows key on `NodeId`).
///
/// Layout: `sub (3 bits) | bucket (5 bits) | local (24 bits)`. An unsplit
/// shard has `sub == 0`, which makes this bit-identical to the pre-split
/// `bucket << 24` layout — default (never-split) runs keep their exact
/// historical node ids. Only when `sub > 0` does the bucket narrow to the
/// [`MAX_SPLIT_BUCKETS`] range the split gate enforces.
fn namespaced(bucket: usize, sub: usize, node: NodeId) -> NodeId {
    let local = node.index();
    debug_assert!(local < (1 << SHARD_NODE_BITS), "shard node index overflow: {local}");
    debug_assert!(
        if sub == 0 {
            bucket < (1 << (32 - SHARD_NODE_BITS))
        } else {
            sub < SPLIT_FANOUT && bucket < MAX_SPLIT_BUCKETS
        },
        "shard namespace overflow: bucket {bucket} sub {sub}"
    );
    let space = ((sub as u32) * MAX_SPLIT_BUCKETS as u32) | (bucket as u32);
    NodeId::from_index((space << SHARD_NODE_BITS) | (local & ((1 << SHARD_NODE_BITS) - 1)))
}

/// One resolved operation, as seen by a CTT consumer.
#[derive(Debug)]
pub struct CttOpEvent<'a> {
    /// Batch index.
    pub batch: usize,
    /// Index of the operation within its batch slice. Events arrive in
    /// canonical round-robin *bucket* order, not submission order — this
    /// is how a consumer that owes each submitter an answer (the serving
    /// layer) maps an event back to its request.
    pub op_index: u32,
    /// Bucket (= SOU) index within the batch.
    pub bucket: usize,
    /// Operation kind.
    pub kind: OpKind,
    /// A stable hash of the operation's key (the hardware's Key_ID), used
    /// by the accelerator model to index the shortcut buffer.
    pub key_id: u64,
    /// Whether the target was resolved through the shortcut table.
    pub shortcut_hit: bool,
    /// The node fetches this operation actually performs: a single direct
    /// fetch on a shortcut hit, the traversal path otherwise.
    pub visits: &'a [NodeVisit],
    /// Partial-key comparisons performed (1 validation compare on a
    /// shortcut hit).
    pub matches: u64,
    /// Total operations of this bucket in this batch — the *value* of the
    /// bucket's nodes for the value-aware Tree buffer (§III-E).
    pub bucket_ops: u32,
    /// Whether a shortcut entry was generated/updated after a traversal.
    pub generated_shortcut: bool,
    /// Digest of the operation's functional answer (value read, previous
    /// value written over, scan result set). Faults may change *how* an
    /// operation resolves (shortcut vs. traversal) but never this digest —
    /// the chaos experiment's differential invariant.
    pub answer: u64,
    /// The operation's concrete result, for consumers that serve answers
    /// back to a caller (the online serving layer) rather than just
    /// auditing digests: the value read (`None` on a miss), the previous
    /// value displaced by an update/insert/remove, or the number of items
    /// a scan returned. Folding this through `digest_option` (scans:
    /// always `Some`) is *not* required to reproduce `answer` — `answer`
    /// also folds scan contents — so treat it as payload, not provenance.
    pub value: Option<u64>,
}

/// A coalesced lock: `size` operations of one bucket targeting one node
/// acquire a single lock and trigger together.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LockGroup {
    /// Batch index.
    pub batch: usize,
    /// Bucket index.
    pub bucket: usize,
    /// The locked node.
    pub node: NodeId,
    /// Operations sharing the lock.
    pub size: u32,
}

/// Per-batch combining summary. Borrows the executor's per-batch bucket
/// size table — consumers that need it past `batch_start` copy what they
/// use (they all reduce it to sums/maxima anyway).
#[derive(Clone, Copy, Debug)]
pub struct BatchEvent<'a> {
    /// Batch index.
    pub index: usize,
    /// Operations per bucket.
    pub bucket_sizes: &'a [u32],
}

/// Observer of a CTT execution. All methods default to no-ops.
pub trait CttConsumer {
    /// A batch was combined and is about to be operated on.
    fn batch_start(&mut self, ev: &BatchEvent<'_>) {
        let _ = ev;
    }

    /// One operation resolved and triggered.
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        let _ = ev;
    }

    /// One coalesced lock acquired by a bucket.
    fn lock_group(&mut self, group: &LockGroup) {
        let _ = group;
    }

    /// All buckets of batch `index` finished.
    fn batch_end(&mut self, index: usize) {
        let _ = index;
    }
}

/// Aggregate statistics of a CTT execution.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct CttStats {
    /// Operations executed.
    pub ops: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Batches processed.
    pub batches: u64,
    /// Shortcut-table statistics (summed over the per-bucket shards).
    pub shortcut: ShortcutStats,
    /// Coalesced locks acquired.
    pub lock_groups: u64,
    /// Locks an operation-centric protocol would have acquired instead
    /// (the saving is `per_op_locks − lock_groups`).
    pub per_op_locks: u64,
    /// Cross-SOU collisions on the shared Shortcut_Table's hash buckets:
    /// two SOUs generating entries into the same bucket within a batch must
    /// synchronize. This is DCART's residual contention source — the paper
    /// still reports 3.2–19.7 % of the baselines' contentions (Fig. 7).
    pub shortcut_hash_collisions: u64,
    /// Times a degradation controller disabled a shortcut shard for the
    /// rest of the run (sticky per-shard latches; at most one per shard,
    /// and sub-shards inherit their parent's latch state on split).
    pub shortcut_disables: u64,
    /// Hot buckets split into sub-shards (whole run). Zero under the
    /// default never-split threshold; deterministic for any fixed
    /// threshold — the split schedule depends only on per-batch op counts.
    pub shard_splits: u64,
    /// Split buckets re-merged after cooling (whole run).
    pub shard_merges: u64,
    /// Digest folded over every operation's answer in execution order;
    /// bit-identical across fault-free and faulted runs of the same
    /// workload (the differential correctness invariant).
    pub answer_digest: u64,
}

/// What one worker recorded about one operation, replayed serially in
/// round-robin bucket order to reconstruct the canonical event stream.
struct OpRecord {
    /// Index into the batch slice.
    op_index: u32,
    /// Cached Key_ID (saves re-hashing the key during replay).
    key_id: u64,
    /// Answer digest (see [`CttOpEvent::answer`]).
    answer: u64,
    /// Concrete result (see [`CttOpEvent::value`]).
    value: Option<u64>,
    /// Partial-key comparisons charged to this op.
    matches: u64,
    /// Fresh-visit range into the shard's visit arena.
    visits_start: u32,
    /// Length of the fresh-visit range.
    visits_len: u32,
    /// Per-op locks an operation-centric protocol would have taken.
    locks: u32,
    /// Shortcut hash bucket written on generation (`u32::MAX` = none).
    hash_bucket: u32,
    /// Whether the shortcut table resolved the target.
    shortcut_hit: bool,
    /// Whether a shortcut entry was generated after a traversal.
    generated: bool,
}

/// A deferred range scan: its position within the bucket and the record
/// (already holding a placeholder) to fill in at batch end.
struct ScanRef {
    pos: u32,
    record: u32,
}

/// Everything one (sub-)shard owns: its subtree, shortcut shard, fault
/// stream, and reusable per-batch scratch. Shards share nothing, which is
/// what makes the worker pool deterministic (and lock-free) by
/// construction. An unsplit bucket is one shard with `sub == 0`; a split
/// bucket fans over [`SPLIT_FANOUT`] of these, each owning the disjoint
/// slice of the bucket's key range its sub-routing byte selects.
struct BucketShard {
    bucket: usize,
    /// Sub-shard index within the bucket (0 while unsplit).
    sub: usize,
    /// This shard's `(bucket position, op index)` slice of the current
    /// batch, filled by the routing pass before the pool runs.
    ops: Vec<(u32, u32)>,
    art: Art<u64>,
    shortcuts: ShortcutTable,
    injector: FaultInjector,
    degrade: DegradationController,
    shortcuts_active: bool,
    disables: u64,
    // Whole-run Traverse counter (never reset per batch): op-level
    // advancement steps, the sum of traversal path lengths.
    ops_advanced: u64,
    // Per-batch scratch: cleared (capacity retained) at batch start.
    visited: FxHashSet<NodeId>,
    write_target_index: FxHashMap<NodeId, usize>,
    write_targets: Vec<(NodeId, u32)>,
    visit_arena: Vec<NodeVisit>,
    records: Vec<OpRecord>,
    scans: Vec<ScanRef>,
    tracer: RecordingTracer,
    /// The Key_ID of every op of `ops`, by slice index: hashed once per
    /// batch for the lookahead, the table and the record.
    kids: Vec<u64>,
    /// The descent window: `(slice index, op index, hint)` of every
    /// traversal being prefetched ahead of its op (see `run_batch`).
    descents: Vec<(u32, u32, DescentHint)>,
    error: Option<(u32, DcartError)>,
}

/// Derives a per-bucket fault seed: each shard draws an independent,
/// deterministic stream whose per-site counters advance only with the
/// shard's own operations — thread-schedule-independent by construction.
fn shard_seed(seed: u64, bucket: usize) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(bucket as u64 + 1)
}

/// Derives a sub-shard fault seed from the bucket seed: distinct per
/// `(bucket, sub)` and distinct from the unsplit shard's own seed, so a
/// shard born from a split (or a re-merge, which uses `sub == 0`) draws a
/// fresh deterministic stream rather than replaying its parent's.
fn sub_shard_seed(seed: u64, bucket: usize, sub: usize) -> u64 {
    shard_seed(seed, bucket).rotate_left(17) ^ 0xd1b5_4a32_d192_ed03u64.wrapping_mul(sub as u64 + 1)
}

/// How many of its own operations ahead a shard requests the cache lines
/// of the shortcut path (see [`BucketShard::run_batch`]). A constant, not
/// a knob: throughput was flat from 2 to 16 (DESIGN.md, "Host-side layout
/// of the shortcut path").
const LOOKAHEAD: usize = 4;

/// How many of its own operations ahead a shard starts the descent hint
/// of an insert or remove (see [`BucketShard::run_batch`]). Fixed by a
/// sweep (DESIGN.md, "Descent window").
const DESCENT_AHEAD: usize = 16;

/// Most descent hints a shard keeps in flight; a descent that would
/// exceed it is not hinted.
const DESCENT_WINDOW: usize = 16;

/// Counts `node` into the shard's insertion-ordered lock-group table.
fn note_write_target(
    index: &mut FxHashMap<NodeId, usize>,
    targets: &mut Vec<(NodeId, u32)>,
    node: NodeId,
) {
    match index.entry(node) {
        Entry::Occupied(e) => targets[*e.get()].1 += 1,
        Entry::Vacant(e) => {
            e.insert(targets.len());
            targets.push((node, 1));
        }
    }
}

impl BucketShard {
    fn new(bucket: usize, config: &DcartConfig) -> Self {
        BucketShard {
            bucket,
            sub: 0,
            ops: Vec::new(),
            art: Art::new(),
            shortcuts: ShortcutTable::new(),
            injector: FaultInjector::new(shard_seed(config.faults.seed, bucket)),
            degrade: DegradationController::new(
                if config.degrade.enabled { config.degrade.shortcut_stale_threshold } else { 0.0 },
                config.degrade.window,
            ),
            shortcuts_active: config.shortcuts_enabled,
            disables: 0,
            ops_advanced: 0,
            visited: FxHashSet::default(),
            write_target_index: FxHashMap::default(),
            write_targets: Vec::new(),
            visit_arena: Vec::new(),
            records: Vec::new(),
            scans: Vec::new(),
            tracer: RecordingTracer::new(),
            kids: Vec::new(),
            descents: Vec::with_capacity(DESCENT_WINDOW),
            error: None,
        }
    }

    /// Builds a sub-shard (or the merged `sub == 0` successor of one) over
    /// an already-constructed subtree. The fault stream reseeds from
    /// [`sub_shard_seed`] and the shortcut shard starts empty — both are
    /// pure functions of `(config, bucket, sub)`, so the shard's behavior
    /// is the same whichever worker runs it. The degradation latch state is
    /// inherited from the predecessor via `shortcuts_active` (a tripped
    /// latch stays tripped across splits and merges).
    fn new_sub(
        bucket: usize,
        sub: usize,
        config: &DcartConfig,
        art: Art<u64>,
        shortcuts_active: bool,
    ) -> Self {
        let mut shard = BucketShard::new(bucket, config);
        shard.sub = sub;
        shard.art = art;
        shard.injector = FaultInjector::new(sub_shard_seed(config.faults.seed, bucket, sub));
        shard.shortcuts_active = shortcuts_active && config.shortcuts_enabled;
        shard
    }

    /// The shard's shortcut statistics with its Traverse counters spliced
    /// in (the table never sees traversals). Every traversal loads each
    /// node on its own path, so node loads equal advancement steps.
    fn stats(&self) -> ShortcutStats {
        let mut s = self.shortcuts.stats();
        s.nodes_visited = self.ops_advanced;
        s.ops_advanced = self.ops_advanced;
        s
    }

    fn begin_batch(&mut self) {
        self.visited.clear();
        self.write_target_index.clear();
        self.write_targets.clear();
        self.visit_arena.clear();
        self.records.clear();
        self.scans.clear();
        self.kids.clear();
        self.descents.clear();
    }

    /// Runs this shard's slice of a batch (`self.ops`, filled by the
    /// routing pass): Traverse + Trigger against the shard's own subtree,
    /// recording outcomes for the serial replay. Each `(pos, op_i)` pair
    /// carries the op's *bucket* position, which the replay uses to
    /// interleave sub-shards back into the canonical bucket order.
    fn run_batch(&mut self, batch: &[Op], plan: &FaultPlan, mode: TraverseMode) {
        self.begin_batch();
        if self.ops.is_empty() {
            // Most shards of a small batch: nothing to hint or run.
            return;
        }
        let window = matches!(mode, TraverseMode::LevelWise);
        // Detach the op slice so the loop can call `&mut self` helpers.
        let ops = std::mem::take(&mut self.ops);
        let mut kids = std::mem::take(&mut self.kids);
        kids.extend(ops.iter().map(|&(_, op_i)| key_id(&batch[op_i as usize].key)));
        // The slice is known in advance, so the two lines a shortcut hit
        // needs are requested before the op that needs them runs: the
        // table slot of the op `2 * LOOKAHEAD` ahead, and — that slot
        // having arrived `LOOKAHEAD` ops later — the arena slot of the
        // target it names. Ops that will traverse instead get a descent
        // hint: reads and updates the peek finds no target for, and
        // inserts and removes `DESCENT_AHEAD` ops ahead. Hints only:
        // `peek` counts and validates nothing and a descent hint checks
        // nothing, so no observable depends on them.
        //
        // The loop gives op `i` its hints at iterations `i - 2 * LOOKAHEAD`,
        // `i - LOOKAHEAD` and `i - DESCENT_AHEAD`; the ops it starts too
        // close to get theirs here, before op 0, so a slice of any length
        // runs the whole pipeline.
        for &kid in kids.iter().take(2 * LOOKAHEAD) {
            self.shortcuts.prefetch(kid);
        }
        for at in 0..ops.len().min(LOOKAHEAD) {
            self.look_ahead(batch, at, ops[at].1, kids[at], window);
        }
        if window {
            for (at, &(_, op_i)) in ops.iter().enumerate().take(DESCENT_AHEAD) {
                if matches!(batch[op_i as usize].kind, OpKind::Insert | OpKind::Remove) {
                    self.start_descent(at, op_i);
                }
            }
        }
        'ops: for (i, &(pos, op_i)) in ops.iter().enumerate() {
            if let Some(&far) = kids.get(i + 2 * LOOKAHEAD) {
                self.shortcuts.prefetch(far);
            }
            if let Some(&(_, near)) = ops.get(i + LOOKAHEAD) {
                self.look_ahead(batch, i + LOOKAHEAD, near, kids[i + LOOKAHEAD], window);
            }
            if window {
                if let Some(&(_, ahead)) = ops.get(i + DESCENT_AHEAD) {
                    if matches!(batch[ahead as usize].kind, OpKind::Insert | OpKind::Remove) {
                        self.start_descent(i + DESCENT_AHEAD, ahead);
                    }
                }
                // One step for every descent in flight; a descent whose op
                // is reached (or that has nothing left to prefetch) leaves.
                let Self { art, descents, .. } = self;
                descents.retain_mut(|(at, op_at, hint)| {
                    *at as usize > i && art.hint_step(hint, batch[*op_at as usize].key.as_bytes())
                });
            }
            let op = &batch[op_i as usize];
            let kid = kids[i];

            if matches!(op.kind, OpKind::Scan) {
                // Scans cross bucket boundaries; defer to the batch-end
                // merge (the placeholder is completed there).
                self.scans.push(ScanRef { pos, record: self.records.len() as u32 });
                self.records.push(OpRecord {
                    op_index: op_i,
                    key_id: kid,
                    answer: 0,
                    value: None,
                    matches: 0,
                    visits_start: 0,
                    visits_len: 0,
                    locks: 0,
                    hash_bucket: u32::MAX,
                    shortcut_hit: false,
                    generated: false,
                });
                continue;
            }

            // Index_Shortcut: probe for reads/updates (unless this shard's
            // degradation controller has disabled its table).
            let hit = if self.shortcuts_active && matches!(op.kind, OpKind::Read | OpKind::Update) {
                // Injected corruption: poison the key's entry just before
                // the probe, so validation catches it and falls back to
                // the root traversal.
                if self.injector.fire(FaultSite::ShortcutEntry, plan.shortcut_corrupt_rate) {
                    self.shortcuts.corrupt(kid);
                }
                let (e, went_stale) = self.shortcuts.probe(kid, &op.key, &self.art);
                if self.degrade.record(went_stale) {
                    // Error rate over the window crossed the threshold:
                    // run the rest of the workload without this shard's
                    // shortcuts (slower, never wrong).
                    self.shortcuts_active = false;
                    self.disables += 1;
                }
                e
            } else {
                None
            };

            let visits_start = self.visit_arena.len() as u32;
            let record = if let Some(leaf) = hit {
                // Shortcut hit: direct target fetch, one validation
                // compare, no traversal. If a combined operation of this
                // bucket already fetched the target this batch, the access
                // is free (it is triggered together).
                let target = namespaced(self.bucket, self.sub, leaf);
                if self.visited.insert(target) {
                    let v = self.art.visit_for(leaf).expect("probe validated the target as live");
                    self.visit_arena.push(NodeVisit { node: target, ..v });
                }
                let mut locks = 0u32;
                let value = match op.kind {
                    OpKind::Read => self.art.read_leaf(leaf, &op.key).copied(),
                    OpKind::Update => {
                        let prev = self
                            .art
                            .update_leaf(leaf, &op.key, op.value)
                            .expect("probe validated the target key");
                        note_write_target(
                            &mut self.write_target_index,
                            &mut self.write_targets,
                            target,
                        );
                        locks = 1;
                        Some(prev)
                    }
                    _ => unreachable!("shortcuts only serve reads/updates"),
                };
                let visits_len = self.visit_arena.len() as u32 - visits_start;
                OpRecord {
                    op_index: op_i,
                    key_id: kid,
                    answer: digest_option(value),
                    value,
                    matches: u64::from(visits_len),
                    visits_start,
                    visits_len,
                    locks,
                    hash_bucket: u32::MAX,
                    shortcut_hit: true,
                    generated: false,
                }
            } else {
                // Traverse_Tree: full (but coalesced-by-bucket) search of
                // the shard's subtree.
                self.tracer.clear();
                let value = match op.kind {
                    OpKind::Read => self.art.get_traced(&op.key, &mut self.tracer).copied(),
                    OpKind::Update | OpKind::Insert => {
                        match self.art.insert_traced(op.key.clone(), op.value, &mut self.tracer) {
                            Ok(prev) => prev,
                            Err(e) => {
                                self.error = Some((pos, DcartError::from(e)));
                                break 'ops;
                            }
                        }
                    }
                    OpKind::Remove => {
                        let prev = self.art.remove_traced(&op.key, &mut self.tracer);
                        self.shortcuts.invalidate(kid);
                        prev
                    }
                    OpKind::Scan => unreachable!("scans are deferred above"),
                };
                let mut generated = false;
                let mut hash_bucket = u32::MAX;
                if self.shortcuts_active && !matches!(op.kind, OpKind::Remove | OpKind::Scan) {
                    if let Some(target) = self.tracer.trace.target {
                        // Generate_Shortcut: only leaves are reusable
                        // point-op targets.
                        if self.art.read_leaf(target, &op.key).is_some() {
                            self.shortcuts.generate(kid, target);
                            generated = true;
                            hash_bucket = hash_bucket_of(kid);
                        }
                    }
                }
                let mut locks = 0u32;
                if op.kind.is_write() {
                    // Every node the write locks joins a coalesced group —
                    // including structural locks on upper nodes of the
                    // shard's subtree.
                    let Self { tracer, write_target_index, write_targets, bucket, sub, .. } = self;
                    if tracer.trace.locks.is_empty() {
                        if let Some(target) = tracer.trace.target {
                            note_write_target(
                                write_target_index,
                                write_targets,
                                namespaced(*bucket, *sub, target),
                            );
                        }
                    } else {
                        for &node in &tracer.trace.locks {
                            note_write_target(
                                write_target_index,
                                write_targets,
                                namespaced(*bucket, *sub, node),
                            );
                        }
                    }
                    locks = tracer.trace.locks.len().max(1) as u32;
                }
                self.ops_advanced += self.tracer.trace.visits.len() as u64;
                // Coalesce the traversal: only first-touch nodes cost a
                // fetch and their share of the partial-key matching; path
                // segments another combined op already walked are shared
                // (paper: "each node ... traversed only once").
                let Self { tracer, visited, visit_arena, bucket, sub, .. } = self;
                for v in &tracer.trace.visits {
                    let node = namespaced(*bucket, *sub, v.node);
                    if visited.insert(node) {
                        visit_arena.push(NodeVisit { node, ..*v });
                    }
                }
                let visits_len = self.visit_arena.len() as u32 - visits_start;
                let total_visits = self.tracer.trace.visits.len().max(1) as u64;
                let matches =
                    self.tracer.trace.partial_key_matches * u64::from(visits_len) / total_visits;
                OpRecord {
                    op_index: op_i,
                    key_id: kid,
                    answer: digest_option(value),
                    value,
                    matches,
                    visits_start,
                    visits_len,
                    locks,
                    hash_bucket,
                    shortcut_hit: false,
                    generated,
                }
            };
            self.records.push(record);
        }
        // Hand the (reusable) op slice back to the routing pass.
        self.ops = ops;
        self.kids = kids;
    }

    /// Peeks the table for the op at slice index `at` (batch index `op_i`,
    /// Key_ID `kid`): prefetches the target it names, or — with the
    /// descent `window` on — opens a descent for a read or update that has
    /// none.
    fn look_ahead(&mut self, batch: &[Op], at: usize, op_i: u32, kid: u64, window: bool) {
        let op = &batch[op_i as usize];
        match self.shortcuts.peek(kid) {
            Some(target) if self.shortcuts_active => self.art.prefetch_node(target),
            _ if window && matches!(op.kind, OpKind::Read | OpKind::Update) => {
                self.start_descent(at, op_i);
            }
            _ => {}
        }
    }

    /// Opens a descent hint for the op at slice index `at` (batch index
    /// `op_i`), unless the window is full.
    fn start_descent(&mut self, at: usize, op_i: u32) {
        if self.descents.len() < DESCENT_WINDOW {
            self.descents.push((at as u32, op_i, self.art.hint_start()));
        }
    }
}

/// One leaf's side of the scan under resolution: a resumable cursor over
/// its subtree, read one key ahead of what the merge has consumed.
#[derive(Default)]
struct LeafScan {
    cursor: ScanCursor,
    /// Every visit the cursor has reported so far, with shard-local ids.
    tracer: RecordingTracer,
    /// Cursor watermark at the current head (once exhausted: of the whole
    /// walk).
    head_mark: (usize, u64),
    /// Watermark of the last key the merge consumed from this leaf — what
    /// a scan that stopped there costs. `None`: nothing consumed.
    charged: Option<(usize, u64)>,
}

impl LeafScan {
    /// Starts a scan of `art` at `start`: one descent to its first head.
    fn open<'a>(&mut self, art: &'a Art<u64>, start: &[u8]) -> Option<(&'a Key, &'a u64)> {
        self.cursor.reset(art);
        self.tracer.clear();
        self.charged = None;
        self.pull(art, start)
    }

    /// Reads the next head, recording the visits on the way to it.
    fn pull<'a>(&mut self, art: &'a Art<u64>, start: &[u8]) -> Option<(&'a Key, &'a u64)> {
        let head = self.cursor.next(art, start, &mut self.tracer);
        self.head_mark = self.cursor.watermark();
        head
    }
}

/// Reusable buffers for the batch-end scan merge.
#[derive(Default)]
struct ScanScratch {
    /// `(pos, bucket, leaf index, record)` of every deferred scan, sorted
    /// into the canonical round-robin order (bucket position first, then
    /// bucket — a bucket has at most one op per position, so sub-shards
    /// never tie).
    order: Vec<(u32, u32, u32, u32)>,
    /// Merged `(key_id, value)` items of the scan under resolution.
    items: Vec<(u64, u64)>,
    /// Per-leaf cursors, indexed like the executor's leaf vector.
    leaves: Vec<LeafScan>,
    /// Leaves the scan under resolution has opened.
    open: Vec<usize>,
    /// Namespaced visits of every resolved scan, flat; per-scan ranges are
    /// carried by `resolved`, per-shard sub-ranges by `segments`.
    visit_buf: Vec<NodeVisit>,
    /// `(visit count, partial-key matches)` per contributing shard.
    segments: Vec<(usize, u64)>,
    /// Per-scan merge outcome awaiting commit:
    /// `(answer, items returned, segments range start, segments range len)`.
    resolved: Vec<(u64, u64, u32, u32)>,
}

/// The smallest head among the cursors `among`, as `(cursor, key, value)`:
/// the selection step of every k-way merge over shard subtrees. Shard key
/// ranges are disjoint, so heads never tie.
fn smallest_head<'a>(
    heads: &[Option<(&'a Key, &'a u64)>],
    among: impl Iterator<Item = usize>,
) -> Option<(usize, &'a Key, &'a u64)> {
    among.filter_map(|i| heads[i].map(|(k, v)| (i, k, v))).min_by_key(|&(_, k, _)| k)
}

/// The skipped key bytes (`prefix_skip_bytes` of them) that every stored
/// key provably shares: a non-empty subtree's root proves its keys agree
/// on them when its compressed path (for a single key, the key) covers
/// them. A scan whose start key carries the same bytes sees combining
/// prefixes in key order; `None` — some root falls short, two roots
/// differ, or nothing is stored — proves nothing.
fn common_skipped_bytes(shards: &[BucketShard], skip: usize) -> Option<&[u8]> {
    let mut common = None;
    for s in shards {
        let bytes = match s.art.root().and_then(|root| s.art.node(root)) {
            None => continue,
            Some(Node::Inner(inner)) => inner.prefix.as_slice(),
            Some(Node::Leaf { key, .. }) => key.as_bytes(),
        };
        let head = bytes.get(..skip)?;
        if *common.get_or_insert(head) != head {
            return None;
        }
    }
    common
}

/// Resolves every scan deferred during the worker phase, one pass per
/// scan: a lazy k-way merge over per-leaf [`ScanCursor`]s (end-of-batch
/// state) yields the answer, and the visits each cursor recorded up to the
/// last key the merge *consumed* from it are the cost.
///
/// Leaves are opened by **prefix frontier**. A key's bucket is its
/// combining prefix modulo the bucket count, so while prefix order is key
/// order (see [`common_skipped_bytes`]) the next key can only come from
/// a bucket owning a prefix up to the current one: the merge opens the
/// leaves of the bucket that owns `start`'s prefix (every sub-shard of a
/// split bucket — the sub index folds the *next* key byte, which does not
/// follow key order) and moves the frontier on, opening the next prefix's
/// bucket, only once the smallest open head lies beyond it. When the order
/// cannot be proven the same loop starts with every leaf open.
///
/// The charge is what re-walking would report: for every leaf that
/// contributed `c > 0` keys the visits of `scan_traced(start, c)` — its
/// recorded visits cut at the watermark of its `c`-th key — and for the
/// scan's own shard when it contributed nothing, the descent to its first
/// head. A leaf that was opened or read ahead but contributed nothing is
/// charged nothing, so which leaves the frontier opened never shows in the
/// event stream.
///
/// Runs in two passes — merge every scan against the (now immutable)
/// shard subtrees, then commit every outcome.
fn resolve_scans(
    shards: &mut [BucketShard],
    groups: &[BucketGroup],
    config: &DcartConfig,
    batch: &[Op],
    scratch: &mut ScanScratch,
) {
    scratch.order.clear();
    for (leaf, shard) in shards.iter().enumerate() {
        for s in &shard.scans {
            scratch.order.push((s.pos, shard.bucket as u32, leaf as u32, s.record));
        }
    }
    if scratch.order.is_empty() {
        return;
    }
    scratch.order.sort_unstable();
    scratch.leaves.resize_with(shards.len(), LeafScan::default);
    scratch.visit_buf.clear();
    scratch.segments.clear();
    scratch.resolved.clear();

    // Pass 1 — merge: shards are only read, so the heads (which borrow the
    // shard trees) persist across the whole pass.
    {
        let shards: &[BucketShard] = shards;
        let skip = config.prefix_skip_bytes;
        let prefix_of = |key: &Key| key.prefix_bits_at(skip, config.prefix_bits);
        let max_prefix = u64::MAX.checked_shr(64 - config.prefix_bits).unwrap_or(0);
        let leaves_of = |prefix: u64| {
            let g = &groups[config.bucket_of(prefix)];
            g.start..g.start + g.subs
        };
        let skipped = common_skipped_bytes(shards, skip);
        let mut heads: Vec<Option<(&Key, &u64)>> = vec![None; shards.len()];
        for &(_, _, leaf32, rec) in &scratch.order {
            let own = leaf32 as usize;
            let op = &batch[shards[own].records[rec as usize].op_index as usize];
            let start = op.key.as_bytes();
            let limit = op.value as usize;

            // `frontier == Some(p)`: every leaf that can hold a key whose
            // prefix is at most `p` is open (or about to be: `to_open`).
            // `None`: nothing is left to open.
            let ordered = skipped.is_some_and(|head| start.get(..skip) == Some(head));
            let (mut frontier, mut to_open) = if ordered {
                let p = prefix_of(&op.key);
                (Some(p), leaves_of(p))
            } else {
                (None, 0..shards.len())
            };
            let mut buckets_opened = 1;
            scratch.items.clear();
            loop {
                for i in std::mem::take(&mut to_open) {
                    heads[i] = scratch.leaves[i].open(&shards[i].art, start);
                    scratch.open.push(i);
                }
                if scratch.items.len() >= limit {
                    break;
                }
                let best = smallest_head(&heads, scratch.open.iter().copied());
                if let Some(p) = frontier {
                    if best.is_none_or(|(_, k, _)| prefix_of(k) > p) {
                        // Consecutive prefixes own consecutive buckets, so
                        // after `buckets` steps every leaf is open.
                        if p == max_prefix || buckets_opened == config.buckets() {
                            frontier = None;
                        } else {
                            frontier = Some(p + 1);
                            to_open = leaves_of(p + 1);
                            buckets_opened += 1;
                        }
                        continue;
                    }
                }
                let Some((i, k, &v)) = best else { break };
                scratch.items.push((key_id(k), v));
                let ls = &mut scratch.leaves[i];
                ls.charged = Some(ls.head_mark);
                heads[i] = ls.pull(&shards[i].art, start);
            }
            // Same digest formula as a single-tree scan: length first, then
            // every (key id, value) pair in key order.
            let mut answer = fold_digest(DIGEST_BASE, scratch.items.len() as u64);
            for &(kid, v) in &scratch.items {
                answer = fold_digest(answer, kid);
                answer = fold_digest(answer, v);
            }

            // Cost, in leaf order: each contributing leaf's visits up to
            // its last consumed key; the scan's own shard always pays at
            // least the descent to its first head.
            let seg_start = scratch.segments.len() as u32;
            scratch.open.sort_unstable();
            for i in scratch.open.drain(..) {
                let ls = &scratch.leaves[i];
                let charge = ls.charged.or((i == own).then_some(ls.head_mark));
                let Some((visits, matches)) = charge else { continue };
                let src = &shards[i];
                scratch.visit_buf.extend(
                    ls.tracer.trace.visits[..visits]
                        .iter()
                        .map(|v| NodeVisit { node: namespaced(src.bucket, src.sub, v.node), ..*v }),
                );
                scratch.segments.push((visits, matches));
            }
            scratch.resolved.push((
                answer,
                scratch.items.len() as u64,
                seg_start,
                scratch.segments.len() as u32 - seg_start,
            ));
        }
    }

    // Pass 2 — commit, in the same scan order: dedup each scan's visits
    // against the owning shard's batch-local visited set (coalescing
    // applies to scans too) and complete the placeholder records.
    let mut off = 0usize;
    for (&(_, _, leaf32, rec), &(answer, count, seg_start, seg_len)) in
        scratch.order.iter().zip(&scratch.resolved)
    {
        let shard = &mut shards[leaf32 as usize];
        let visits_start = shard.visit_arena.len() as u32;
        let mut matches = 0u64;
        for &(len, pkm) in &scratch.segments[seg_start as usize..(seg_start + seg_len) as usize] {
            let seg = &scratch.visit_buf[off..off + len];
            off += len;
            let mut fresh = 0u64;
            for v in seg {
                if shard.visited.insert(v.node) {
                    shard.visit_arena.push(*v);
                    fresh += 1;
                }
            }
            matches += pkm * fresh / (len.max(1) as u64);
        }
        let record = &mut shard.records[rec as usize];
        record.answer = answer;
        record.value = Some(count);
        record.matches = matches;
        record.visits_start = visits_start;
        record.visits_len = shard.visit_arena.len() as u32 - visits_start;
    }
}

/// Every entry of a set of key-disjoint subtrees, ascending by key: a
/// k-way merge that moves in *runs*. It picks the subtree with the
/// smallest head, then drains that subtree for as long as its head stays
/// below the runner-up's — shard key ranges interleave by combining
/// prefix, so a run is a whole prefix's keys (hundreds at a time) and the
/// scan over all heads happens once per run, not once per key.
struct OrderedEntries<'a> {
    iters: Vec<Range<'a, u64>>,
    heads: Vec<Option<(&'a Key, &'a u64)>>,
    /// The subtree being drained.
    current: usize,
    /// Where its run ends: the smallest head among the others (`None`:
    /// no other subtree has anything left).
    bound: Option<&'a Key>,
}

impl<'a> OrderedEntries<'a> {
    fn new(trees: impl Iterator<Item = &'a Art<u64>>) -> Self {
        let mut iters: Vec<_> = trees.map(Art::iter).collect();
        let heads = iters.iter_mut().map(Iterator::next).collect();
        let mut merged = OrderedEntries { iters, heads, current: 0, bound: None };
        merged.pick();
        merged
    }

    /// Starts the next run: `current` becomes the subtree with the
    /// smallest head, `bound` the runner-up's head.
    fn pick(&mut self) {
        let heads = &self.heads;
        if let Some((best, _, _)) = smallest_head(heads, 0..heads.len()) {
            self.current = best;
            self.bound =
                smallest_head(heads, (0..heads.len()).filter(|&i| i != best)).map(|(_, k, _)| k);
        }
    }
}

impl<'a> Iterator for OrderedEntries<'a> {
    type Item = (&'a Key, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let mut head = self.heads.get(self.current).copied().flatten();
        if head.is_none_or(|(k, _)| self.bound.is_some_and(|b| k >= b)) {
            // Subtree exhausted, or its head has passed the runner-up's:
            // the smallest head overall starts the next run and is inside
            // it, keys being distinct across subtrees.
            self.pick();
            head = self.heads.get(self.current).copied().flatten();
        }
        let (key, &value) = head?;
        self.heads[self.current] = self.iters[self.current].next();
        Some((key, value))
    }
}

/// Bulk-loads an ordered entry stream through the validating sorted
/// constructor, which also enforces the *global* prefix-free invariant
/// that per-shard inserts cannot see. Used both by the end-of-run merge
/// over every leaf shard and by the re-merge of a cooled bucket's
/// sub-shards.
fn collect_tree<'a>(entries: impl Iterator<Item = (&'a Key, u64)>) -> Result<Art<u64>, DcartError> {
    Ok(Art::from_sorted(entries.map(|(k, v)| (k.clone(), v)).collect())?)
}

/// Per-bucket adaptive-sharding state. The executor's shard vector holds
/// *leaves* (one per unsplit bucket, [`SPLIT_FANOUT`] per split bucket, in
/// bucket order); each group tracks where its bucket's leaves start and
/// how a split bucket's positions map onto them.
struct BucketGroup {
    bucket: usize,
    /// Index of this bucket's first leaf in the executor's shard vector
    /// (recomputed by every routing pass).
    start: usize,
    /// Leaves this bucket currently fans over (1 while unsplit).
    subs: usize,
    /// Consecutive cool batches, for the merge hysteresis.
    cool: u32,
    /// Bucket position → `(sub, record index)` of the current batch; empty
    /// while unsplit (record index then equals the position).
    route: Vec<(u8, u32)>,
    splits: u64,
    merges: u64,
    /// Ops routed through this bucket over the whole run.
    ops_routed: u64,
    /// Stats of leaves retired by past splits/merges, folded here so the
    /// run totals survive the shard turnover.
    retired: ShortcutStats,
    retired_disables: u64,
}

impl BucketGroup {
    fn new(bucket: usize) -> Self {
        BucketGroup {
            bucket,
            start: bucket,
            subs: 1,
            cool: 0,
            route: Vec::new(),
            splits: 0,
            merges: 0,
            ops_routed: 0,
            retired: ShortcutStats::default(),
            retired_disables: 0,
        }
    }
}

/// The split policy fixed for a whole run: a pure function of the config
/// and batch size, so the split schedule depends only on the op stream.
struct SplitPolicy {
    /// Splitting entirely off (threshold 1.0, or too many buckets for the
    /// sub-shard namespace).
    enabled: bool,
    /// Per-batch op count above which a bucket splits; a split bucket is
    /// *cool* at or below half this.
    split_above: usize,
    /// Key byte the sub-shards route on: the first byte past the combining
    /// prefix.
    next_byte: usize,
}

impl SplitPolicy {
    fn resolve(config: &DcartConfig, batch_size: usize) -> Self {
        let frac = config.split_threshold.unwrap_or(1.0);
        let frac = if frac.is_finite() { frac.clamp(0.0, 1.0) } else { 1.0 };
        SplitPolicy {
            enabled: frac < 1.0 && config.buckets() <= MAX_SPLIT_BUCKETS,
            split_above: (batch_size as f64 * frac).ceil() as usize,
            next_byte: config.prefix_skip_bytes + (config.prefix_bits as usize).div_ceil(8),
        }
    }
}

/// Sub-shard a key routes to within its (split) bucket: the key byte just
/// past the combining prefix, folded onto the fanout. Keys too short to
/// have that byte share sub 0.
fn sub_of(key: &Key, next_byte: usize) -> usize {
    key.as_bytes().get(next_byte).copied().unwrap_or(0) as usize % SPLIT_FANOUT
}

/// Folds a retiring leaf's whole-run counters into its group's
/// accumulator, so splits and merges never lose statistics.
fn retire_shard(shard: &BucketShard, retired: &mut ShortcutStats, disables: &mut u64) {
    retired.accumulate(&shard.stats());
    *disables += shard.disables;
}

/// Splits a hot bucket's single leaf into [`SPLIT_FANOUT`] sub-shards:
/// the subtree partitions by the routing byte (each partition is a
/// subsequence of the sorted iteration, so the validating bulk loader
/// accepts it), the shortcut shard restarts empty (its arena node ids die
/// with the old tree), and each sub-shard draws a derived-seed fault
/// stream. The degradation latch is inherited.
fn split_bucket(
    g: &mut BucketGroup,
    leaves: &mut Vec<BucketShard>,
    config: &DcartConfig,
    policy: &SplitPolicy,
) -> Result<(), DcartError> {
    let old = leaves.remove(g.start);
    let shortcuts_active = old.shortcuts_active;
    retire_shard(&old, &mut g.retired, &mut g.retired_disables);
    let mut parts: Vec<Vec<(Key, u64)>> = (0..SPLIT_FANOUT).map(|_| Vec::new()).collect();
    for (k, &v) in old.art.iter() {
        parts[sub_of(k, policy.next_byte)].push((k.clone(), v));
    }
    for (sub, part) in parts.into_iter().enumerate().rev() {
        let art = Art::from_sorted(part)?;
        leaves.insert(g.start, BucketShard::new_sub(g.bucket, sub, config, art, shortcuts_active));
    }
    g.subs = SPLIT_FANOUT;
    g.splits += 1;
    g.cool = 0;
    Ok(())
}

/// Re-merges a cooled bucket's sub-shards into one leaf through the same
/// ordered merge and validating bulk load that produce the final tree. The
/// merged shard's shortcut table restarts empty; its latch stays tripped
/// if *any* sub-shard's was (sticky degradation never un-trips on merge).
fn merge_bucket(
    g: &mut BucketGroup,
    leaves: &mut Vec<BucketShard>,
    config: &DcartConfig,
) -> Result<(), DcartError> {
    let subs: Vec<BucketShard> = leaves.drain(g.start..g.start + g.subs).collect();
    let active = subs.iter().all(|s| s.shortcuts_active);
    for s in &subs {
        retire_shard(s, &mut g.retired, &mut g.retired_disables);
    }
    let art = collect_tree(OrderedEntries::new(subs.iter().map(|s| &s.art)))?;
    leaves.insert(g.start, BucketShard::new_sub(g.bucket, 0, config, art, active));
    g.subs = 1;
    g.merges += 1;
    g.cool = 0;
    Ok(())
}

/// The per-batch adaptation + routing pass: walks the groups in bucket
/// order, splits newly hot buckets and re-merges cooled ones (decisions
/// read only the per-batch op counts), then deals every bucket op into its
/// leaf's `(bucket position, op index)` slice for the worker pool.
fn adapt_and_route(
    groups: &mut [BucketGroup],
    leaves: &mut Vec<BucketShard>,
    combined: &CombinedBatch,
    batch: &[Op],
    config: &DcartConfig,
    policy: &SplitPolicy,
) -> Result<(), DcartError> {
    let mut start = 0usize;
    for g in groups.iter_mut() {
        g.start = start;
        let bucket_ops = &combined.buckets[g.bucket];
        let load = bucket_ops.len();
        g.ops_routed += load as u64;
        if policy.enabled {
            if g.subs == 1 && load > policy.split_above {
                split_bucket(g, leaves, config, policy)?;
            } else if g.subs > 1 {
                if load <= policy.split_above / 2 {
                    g.cool += 1;
                    if g.cool >= MERGE_PATIENCE {
                        merge_bucket(g, leaves, config)?;
                    }
                } else {
                    g.cool = 0;
                }
            }
        }
        for leaf in &mut leaves[g.start..g.start + g.subs] {
            leaf.ops.clear();
        }
        g.route.clear();
        if g.subs == 1 {
            let leaf = &mut leaves[g.start];
            for (pos, &op_i) in bucket_ops.iter().enumerate() {
                leaf.ops.push((pos as u32, op_i));
            }
        } else {
            for &op_i in bucket_ops {
                let sub = sub_of(&batch[op_i as usize].key, policy.next_byte);
                let pos = g.route.len() as u32;
                let leaf = &mut leaves[g.start + sub];
                g.route.push((sub as u8, leaf.ops.len() as u32));
                leaf.ops.push((pos, op_i));
            }
        }
        start += g.subs;
    }
    Ok(())
}

/// Executes `ops` over a tree loaded with `keys` under the CTT model,
/// streaming events to `consumer`, and returns the final tree, the
/// aggregate statistics and the per-bucket [`LoadReport`].
///
/// The one-shot entry point: a bulk load into a [`CttSession`], then
/// [`CttSession::execute_all`]. Every knob comes from `config` and `opts`.
///
/// Shortcuts accelerate reads and updates (the operations of the paper's
/// workloads); inserts and removes always traverse, and removes invalidate
/// their key's shortcut.
///
/// # Examples
///
/// ```
/// use dcart::{execute_ctt, CttConsumer, DcartConfig, ExecOpts};
/// use dcart_workloads::{generate_ops, synth, OpStreamConfig};
///
/// struct Sink;
/// impl CttConsumer for Sink {}
///
/// let keys = synth::dense(500, 1);
/// let ops = generate_ops(&keys, &OpStreamConfig { count: 2_000, ..Default::default() });
/// let cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
/// let (tree, stats, _) = execute_ctt(&keys, &ops, &cfg, 512, &ExecOpts::default(), &mut Sink)?;
/// assert_eq!(stats.ops, 2_000);
/// assert!(stats.lock_groups < stats.per_op_locks, "coalescing saves locks");
/// assert!(tree.len() >= 500);
/// # Ok::<(), dcart::DcartError>(())
/// ```
///
/// # Errors
///
/// * [`DcartError::InvalidBatchSize`] when `batch_size == 0`;
/// * [`DcartError::Art`] when the key set or an insert violates the
///   tree's prefix-free requirement.
pub fn execute_ctt<C: CttConsumer>(
    keys: &KeySet,
    ops: &[Op],
    config: &DcartConfig,
    batch_size: usize,
    opts: &ExecOpts,
    consumer: &mut C,
) -> Result<(Art<u64>, CttStats, LoadReport), DcartError> {
    if batch_size == 0 {
        return Err(DcartError::InvalidBatchSize);
    }
    // Partitioned bulk load: every key goes to the shard its combining
    // prefix selects (the same routing the PCU applies to operations), with
    // its *global* load index as the value — identical values to a
    // single-tree `load_indexed`.
    let shards = load_shards(config, keys.keys.iter().enumerate().map(|(i, k)| (k, i as u64)))?;
    CttSession::from_shards(shards, config, opts, batch_size, 0).execute_all(ops, consumer)
}

/// Builds the per-bucket shards and routes every `(key, value)` entry to
/// the shard its combining prefix selects.
fn load_shards<'a>(
    config: &DcartConfig,
    entries: impl Iterator<Item = (&'a Key, u64)>,
) -> Result<Vec<BucketShard>, DcartError> {
    let buckets = config.buckets();
    let mut shards: Vec<BucketShard> = (0..buckets).map(|b| BucketShard::new(b, config)).collect();
    for (key, value) in entries {
        let prefix = key.prefix_bits_at(config.prefix_skip_bytes, config.prefix_bits);
        shards[config.bucket_of(prefix)].art.insert(key.clone(), value)?;
    }
    Ok(shards)
}

/// Per-bucket load observed over a whole run, for the skew histograms in
/// the bench report. Every field is deterministic for a fixed config.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct BucketLoad {
    /// Bucket index.
    pub bucket: usize,
    /// Operations routed through the bucket over the run.
    pub ops: u64,
    /// Tree nodes its shards loaded (retired + live leaves).
    pub nodes_visited: u64,
    /// Times the bucket split into sub-shards.
    pub splits: u64,
    /// Times its sub-shards re-merged.
    pub merges: u64,
    /// Leaves the bucket ended the run with (1 unless still split).
    pub subs_at_end: usize,
}

/// Load-balance observability for one execution: the per-bucket skew
/// histogram.
///
/// Every entry is deterministic (split schedules depend only on op
/// counts), so the whole report is byte-identical across thread counts
/// and steal settings, pinned by tests.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct LoadReport {
    /// Per-bucket load, in bucket order.
    pub buckets: Vec<BucketLoad>,
}

/// A resumable, incrementally-driven CTT execution: the seam the online
/// serving layer coalesces requests onto.
///
/// This is the only way a CTT run executes. A known op slice goes through
/// [`execute_all`](CttSession::execute_all) (which [`execute_ctt`] and the
/// durability layer use): fixed-size batches, then
/// [`finish`](CttSession::finish). A server cannot do that — its batches
/// materialize one at a time (whatever queued while the last one ran) and
/// vary in size — so the session exposes the loop body directly: construct once
/// over the recovered tree state, call
/// [`execute_batch`](CttSession::execute_batch) per coalesced batch, read
/// [`entries`](CttSession::entries) /
/// [`answer_digest`](CttSession::answer_digest) for checkpoints whenever
/// convenient, and [`finish`](CttSession::finish) at drain.
///
/// Determinism contract: driving a session with the same sequence of
/// batch slices produces byte-identical events, digests, and stats as
/// [`execute_all`](CttSession::execute_all) fed the concatenated ops at the
/// same batch boundaries. (The split policy is resolved once from the
/// construction-time `batch_size`, so a server's variable-size flushes keep
/// a stable split schedule input.)
pub struct CttSession {
    config: DcartConfig,
    policy: SplitPolicy,
    opts: ExecOpts,
    /// The nominal batch size [`execute_all`](CttSession::execute_all)
    /// chunks by.
    batch_size: usize,
    stats: CttStats,
    /// The leaf vector starts as one shard per bucket; splits and merges
    /// reshape it between batches. `groups` tracks each bucket's slice.
    leaves: Vec<BucketShard>,
    groups: Vec<BucketGroup>,
    // Whole-run scratch, reused across batches.
    combined: CombinedBatch,
    bucket_sizes: Vec<u32>,
    shortcut_writers: FxHashMap<u64, usize>,
    scan_scratch: ScanScratch,
    batch_idx: usize,
}

impl CttSession {
    /// Opens a session over an explicit tree state (`pairs`, routed by the
    /// same combining prefixes as a bulk load), continuing the answer
    /// digest from `initial_digest` — the serving layer's and the
    /// durability layer's recovery seam.
    ///
    /// Resuming is exact: running a prefix of an op stream, capturing the
    /// merged tree and digest, and resuming over the suffix produces the
    /// *same final tree and cumulative answer digest* as one uninterrupted
    /// run — answers depend only on tree contents, never on shortcut-table,
    /// fault-stream, or degradation state (which reset at the seam; timing
    /// and hit-rate stats therefore differ, answers cannot).
    ///
    /// `batch_size` is the *nominal* batch size: it seeds the split policy
    /// and the chunking of [`execute_all`](CttSession::execute_all) (and
    /// must be positive); [`execute_batch`](CttSession::execute_batch)
    /// takes whatever slices it is given.
    ///
    /// # Errors
    ///
    /// * [`DcartError::InvalidBatchSize`] when `batch_size == 0`;
    /// * [`DcartError::Art`] when `pairs` violates the tree's prefix-free
    ///   requirement.
    pub fn from_pairs(
        pairs: &[(Key, u64)],
        config: &DcartConfig,
        opts: &ExecOpts,
        batch_size: usize,
        initial_digest: u64,
    ) -> Result<Self, DcartError> {
        if batch_size == 0 {
            return Err(DcartError::InvalidBatchSize);
        }
        let shards = load_shards(config, pairs.iter().map(|(k, v)| (k, *v)))?;
        Ok(Self::from_shards(shards, config, opts, batch_size, initial_digest))
    }

    /// `batch_size` must already be checked positive.
    fn from_shards(
        shards: Vec<BucketShard>,
        config: &DcartConfig,
        opts: &ExecOpts,
        batch_size: usize,
        initial_digest: u64,
    ) -> Self {
        CttSession {
            config: *config,
            policy: SplitPolicy::resolve(config, batch_size),
            opts: *opts,
            batch_size,
            stats: CttStats { answer_digest: initial_digest, ..CttStats::default() },
            leaves: shards,
            groups: (0..config.buckets()).map(BucketGroup::new).collect(),
            combined: CombinedBatch { buckets: Vec::new(), scanned: 0 },
            bucket_sizes: Vec::new(),
            shortcut_writers: FxHashMap::default(),
            scan_scratch: ScanScratch::default(),
            batch_idx: 0,
        }
    }

    /// Executes one coalesced batch end to end: Combine, adapt + route,
    /// Traverse + Trigger on the worker pool, scan resolution, serial
    /// replay into `consumer`. The one-shot loop body, verbatim.
    ///
    /// # Errors
    ///
    /// [`DcartError::Art`] when an insert violates the tree's prefix-free
    /// requirement (deterministically the first failure a serial sweep
    /// would hit). An erring session holds a partially-executed batch —
    /// discard it and rebuild from durable state; further calls are not
    /// meaningful.
    pub fn execute_batch<C: CttConsumer>(
        &mut self,
        batch: &[Op],
        consumer: &mut C,
    ) -> Result<(), DcartError> {
        let batch_idx = self.batch_idx;
        self.batch_idx += 1;
        let config = &self.config;
        let plan = config.faults;
        combine_batch_into(config, batch, &mut self.combined);
        self.bucket_sizes.clear();
        self.bucket_sizes.extend(self.combined.buckets.iter().map(|b| b.len() as u32));

        // Adapt + route: split hot buckets / re-merge cooled ones (from op
        // counts alone), then deal every op into its leaf's slice.
        adapt_and_route(
            &mut self.groups,
            &mut self.leaves,
            &self.combined,
            batch,
            config,
            &self.policy,
        )?;

        // Traverse + Trigger: the key-disjoint leaves run concurrently;
        // outcomes land in per-shard records, not in shared state. With
        // `steal`, idle workers claim the heaviest leaf left — which moves
        // work, never results.
        let ExecOpts { threads, mode, steal } = self.opts;
        if steal && threads > 1 {
            let mut heaviest_first: Vec<&mut BucketShard> = self.leaves.iter_mut().collect();
            heaviest_first.sort_by_key(|shard| std::cmp::Reverse(shard.ops.len()));
            par_for_each_mut(&mut heaviest_first, threads, |_, shard| {
                shard.run_batch(batch, &plan, mode);
            });
        } else {
            par_for_each_mut(&mut self.leaves, threads, |_, shard| {
                shard.run_batch(batch, &plan, mode);
            });
        }

        // A failed insert aborts the run; pick the failure a serial
        // round-robin sweep would have hit first so the error (like every
        // other observable) is thread-count-independent. No events are
        // emitted for the aborted batch.
        let mut first_error: Option<(u32, u32, DcartError)> = None;
        for shard in self.leaves.iter_mut() {
            if let Some((pos, e)) = shard.error.take() {
                let b = shard.bucket as u32;
                if first_error.as_ref().is_none_or(|(p, fb, _)| (pos, b) < (*p, *fb)) {
                    first_error = Some((pos, b, e));
                }
            }
        }
        if let Some((_, _, e)) = first_error {
            return Err(e);
        }

        resolve_scans(&mut self.leaves, &self.groups, config, batch, &mut self.scan_scratch);

        // Serial replay: walk the records in the canonical round-robin
        // bucket order, so shared consumer-side resources (the Tree buffer
        // above all) see the same mixed access stream the hardware does —
        // and the stream is identical at any worker count. A split
        // bucket's route table maps each bucket position back to the
        // sub-shard that recorded it.
        consumer.batch_start(&BatchEvent { index: batch_idx, bucket_sizes: &self.bucket_sizes });
        self.stats.batches += 1;
        self.shortcut_writers.clear();
        for round in 0..self.combined.max_bucket_len() {
            for g in &self.groups {
                let (leaf, rec_idx) = if g.subs == 1 {
                    (g.start, round)
                } else {
                    match g.route.get(round) {
                        Some(&(sub, idx)) => (g.start + sub as usize, idx as usize),
                        None => continue,
                    }
                };
                let shard = &self.leaves[leaf];
                let Some(record) = shard.records.get(rec_idx) else { continue };
                let op = &batch[record.op_index as usize];
                self.stats.ops += 1;
                if op.kind.is_write() {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                self.stats.per_op_locks += u64::from(record.locks);
                if record.generated {
                    // Cross-SOU hash-bucket collisions on the shared
                    // off-chip Shortcut_Table, counted over the canonical
                    // interleaved order. Sub-shards of one bucket share an
                    // SOU, so they never collide with each other.
                    let hb = u64::from(record.hash_bucket);
                    if let Some(&writer) = self.shortcut_writers.get(&hb) {
                        if writer != g.bucket {
                            self.stats.shortcut_hash_collisions += 1;
                        }
                    }
                    self.shortcut_writers.insert(hb, g.bucket);
                }
                self.stats.answer_digest = fold_digest(self.stats.answer_digest, record.answer);
                let visits = &shard.visit_arena[record.visits_start as usize
                    ..(record.visits_start + record.visits_len) as usize];
                consumer.op(&CttOpEvent {
                    batch: batch_idx,
                    op_index: record.op_index,
                    bucket: g.bucket,
                    kind: op.kind,
                    key_id: record.key_id,
                    shortcut_hit: record.shortcut_hit,
                    visits,
                    matches: record.matches,
                    bucket_ops: self.bucket_sizes[g.bucket],
                    generated_shortcut: record.generated,
                    answer: record.answer,
                    value: record.value,
                });
            }
        }

        // Trigger_Operation: one lock per (bucket, target) group, emitted
        // in bucket order (sub-shards in sub order within their bucket)
        // and first-write order within a leaf.
        for g in &self.groups {
            for shard in &self.leaves[g.start..g.start + g.subs] {
                for &(node, size) in &shard.write_targets {
                    self.stats.lock_groups += 1;
                    consumer.lock_group(&LockGroup {
                        batch: batch_idx,
                        bucket: g.bucket,
                        node,
                        size,
                    });
                }
            }
        }
        consumer.batch_end(batch_idx);
        Ok(())
    }

    /// Executes `ops` in consecutive chunks of the nominal batch size, then
    /// [`finish`](CttSession::finish)es.
    ///
    /// # Errors
    ///
    /// Whatever [`execute_batch`](CttSession::execute_batch) or
    /// [`finish`](CttSession::finish) returns.
    pub fn execute_all<C: CttConsumer>(
        mut self,
        ops: &[Op],
        consumer: &mut C,
    ) -> Result<(Art<u64>, CttStats, LoadReport), DcartError> {
        for batch in ops.chunks(self.batch_size) {
            self.execute_batch(batch, consumer)?;
        }
        self.finish()
    }

    /// The cumulative answer digest after every batch executed so far —
    /// what a checkpoint written *now* must record.
    pub fn answer_digest(&self) -> u64 {
        self.stats.answer_digest
    }

    /// Keys the session holds, over all shards.
    pub fn len(&self) -> usize {
        self.leaves.iter().map(|leaf| leaf.art.len()).sum()
    }

    /// Whether the session holds no key at all.
    pub fn is_empty(&self) -> bool {
        self.leaves.iter().all(|leaf| leaf.art.is_empty())
    }

    /// Every `(key, value)` the session holds, ascending by key, streamed
    /// from the live shards — what a full-walk checkpoint encodes, and
    /// what [`tree`](CttSession::tree) bulk-loads.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, u64)> + '_ {
        OrderedEntries::new(self.leaves.iter().map(|leaf| &leaf.art))
    }

    /// Merges the live shard subtrees into one logical tree *without*
    /// ending the session. (Checkpoints do not need it: they encode
    /// [`entries`](CttSession::entries).)
    ///
    /// # Errors
    ///
    /// [`DcartError::Art`] if the merged key set violates the prefix-free
    /// invariant (cannot happen for key sets the shards accepted).
    pub fn tree(&self) -> Result<Art<u64>, DcartError> {
        collect_tree(self.entries())
    }

    /// Ends the session: folds the per-shard traverse/shortcut counters
    /// into the stats, builds the per-bucket load report, and merges the
    /// final tree.
    ///
    /// # Errors
    ///
    /// [`DcartError::Art`] if the final merge fails (cannot happen for key
    /// sets the shards accepted).
    pub fn finish(self) -> Result<(Art<u64>, CttStats, LoadReport), DcartError> {
        let CttSession { mut stats, leaves, groups, .. } = self;
        let mut load = LoadReport { buckets: Vec::with_capacity(groups.len()) };
        for g in &groups {
            // The Traverse counters live on the shard (the shortcut table
            // never sees traversals); splice them into each live leaf's
            // stats, then add what past splits/merges already retired, so
            // the run-level sum survives the shard turnover.
            let mut live_visited = 0u64;
            for shard in &leaves[g.start..g.start + g.subs] {
                stats.shortcut.accumulate(&shard.stats());
                stats.shortcut_disables += shard.disables;
                live_visited += shard.ops_advanced;
            }
            stats.shortcut.accumulate(&g.retired);
            stats.shortcut_disables += g.retired_disables;
            stats.shard_splits += g.splits;
            stats.shard_merges += g.merges;
            load.buckets.push(BucketLoad {
                bucket: g.bucket,
                ops: g.ops_routed,
                nodes_visited: g.retired.nodes_visited + live_visited,
                splits: g.splits,
                merges: g.merges,
                subs_at_end: g.subs,
            });
        }
        let art = collect_tree(OrderedEntries::new(leaves.iter().map(|leaf| &leaf.art)))?;
        Ok((art, stats, load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

    /// [`execute_ctt`] under `opts`, for runs that must come back clean.
    fn exec<C: CttConsumer>(
        keys: &KeySet,
        ops: &[Op],
        cfg: &DcartConfig,
        batch_size: usize,
        opts: ExecOpts,
        consumer: &mut C,
    ) -> (Art<u64>, CttStats, LoadReport) {
        execute_ctt(keys, ops, cfg, batch_size, &opts, consumer).expect("runs clean")
    }

    /// One thread, the descent window, slot-order claiming.
    const SERIAL: ExecOpts = ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false };

    #[derive(Default)]
    struct Collector {
        ops: u64,
        hits: u64,
        visits: u64,
        groups: u64,
        group_ops: u64,
        batches: Vec<usize>,
    }

    impl CttConsumer for Collector {
        fn op(&mut self, ev: &CttOpEvent<'_>) {
            self.ops += 1;
            self.visits += ev.visits.len() as u64;
            if ev.shortcut_hit {
                self.hits += 1;
                assert!(
                    ev.visits.len() <= 1,
                    "shortcut hit fetches at most the target (0 if a combined op already did)"
                );
                assert_eq!(ev.matches, ev.visits.len() as u64);
            }
        }

        fn lock_group(&mut self, group: &LockGroup) {
            self.groups += 1;
            self.group_ops += u64::from(group.size);
        }

        fn batch_end(&mut self, index: usize) {
            self.batches.push(index);
        }
    }

    fn run(mix: Mix, shortcuts: bool) -> (CttStats, Collector) {
        let keys = Workload::Ipgeo.generate(5_000, 1);
        let ops = generate_ops(&keys, &OpStreamConfig { count: 20_000, mix, ..Default::default() });
        let cfg = DcartConfig { shortcuts_enabled: shortcuts, ..Default::default() };
        let mut c = Collector::default();
        let (_, stats, _) = exec(&keys, &ops, &cfg, 4096, SERIAL, &mut c);
        (stats, c)
    }

    #[test]
    fn empty_op_stream_loads_keys_and_emits_no_events() {
        // `ops.chunks(batch_size)` over an empty slice yields zero batches;
        // the executor must still bulk-load the key set and report clean
        // zeroed stats rather than tripping over the missing batches.
        let keys = Workload::Ipgeo.generate(500, 9);
        let cfg = DcartConfig::default();
        let mut c = Collector::default();
        let (art, stats, _) = exec(&keys, &[], &cfg, 4096, SERIAL, &mut c);
        assert_eq!(art.len(), 500, "bulk load runs even with no operations");
        assert_eq!(stats.ops, 0);
        assert_eq!(stats.lock_groups, 0);
        assert_eq!(stats.shortcut.hits, 0);
        assert_eq!(c.ops, 0);
        assert!(c.batches.is_empty(), "no batches for an empty stream");
    }

    #[test]
    fn single_op_stream_forms_one_batch() {
        let keys = Workload::Ipgeo.generate(500, 9);
        let op = Op { kind: OpKind::Read, key: keys.keys[0].clone(), value: 0 };
        let cfg = DcartConfig::default();
        let mut c = Collector::default();
        let (_, stats, _) = exec(&keys, std::slice::from_ref(&op), &cfg, 4096, SERIAL, &mut c);
        assert_eq!(stats.ops, 1);
        assert_eq!(c.ops, 1);
        assert_eq!(c.batches, vec![0], "one partial batch, index 0");
        assert!(c.visits >= 1, "the read fetches at least one node");
    }

    #[test]
    fn shortcuts_absorb_hot_reads() {
        let (stats, c) = run(Mix::A, true);
        assert_eq!(stats.ops, 20_000);
        let hit_ratio = stats.shortcut.hits as f64 / stats.ops as f64;
        assert!(hit_ratio > 0.5, "hot Zipfian reads should mostly hit: {hit_ratio}");
        assert_eq!(c.hits, stats.shortcut.hits);
    }

    #[test]
    fn disabling_shortcuts_forces_traversals() {
        let (with, cw) = run(Mix::C, true);
        let (without, co) = run(Mix::C, false);
        assert_eq!(without.shortcut.hits, 0);
        assert!(with.shortcut.hits > 0);
        assert!(cw.visits < co.visits, "shortcuts must cut node fetches");
    }

    #[test]
    fn coalescing_reduces_lock_count() {
        let (stats, c) = run(Mix::E, true);
        assert!(
            stats.lock_groups < stats.per_op_locks,
            "groups {} must be fewer than per-op locks {}",
            stats.lock_groups,
            stats.per_op_locks
        );
        // Every write is covered by at least one group membership (writes
        // with structural locks join one group per locked node).
        assert!(c.group_ops >= stats.writes);
    }

    #[test]
    fn results_match_operation_centric_execution() {
        // The CTT-executed tree must end in the same state as a plain
        // sequential execution (coalescing is an execution strategy, not a
        // semantic change).
        let keys = Workload::DenseInt.generate(2_000, 2);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 10_000, mix: Mix::C, ..Default::default() },
        );
        let mut c = Collector::default();
        let (ctt_tree, _, _) = exec(&keys, &ops, &DcartConfig::default(), 1024, SERIAL, &mut c);
        let plain = dcart_baselines::execute_with_traces(&keys, &ops, |_| {});
        assert_eq!(ctt_tree.len(), plain.len());
        let a: Vec<_> = ctt_tree.iter().map(|(k, _)| k.clone()).collect();
        let b: Vec<_> = plain.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(a, b, "same keys in same order");
    }

    #[test]
    fn batches_are_sequential() {
        let (_, c) = run(Mix::C, true);
        assert_eq!(c.batches, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn try_variant_returns_typed_errors() {
        let keys = Workload::Ipgeo.generate(100, 9);
        let cfg = DcartConfig::default();
        let err = execute_ctt(&keys, &[], &cfg, 0, &SERIAL, &mut Collector::default()).unwrap_err();
        assert!(matches!(err, DcartError::InvalidBatchSize), "{err}");
    }

    /// Folds every observable of the event stream into one digest, so two
    /// runs can be compared event-for-event without storing the streams.
    #[derive(Default)]
    struct StreamDigest {
        h: u64,
    }

    impl CttConsumer for StreamDigest {
        fn batch_start(&mut self, ev: &BatchEvent<'_>) {
            self.h = fold_digest(self.h, ev.index as u64);
            for &s in ev.bucket_sizes {
                self.h = fold_digest(self.h, u64::from(s));
            }
        }

        fn op(&mut self, ev: &CttOpEvent<'_>) {
            self.h = fold_digest(self.h, ev.bucket as u64);
            self.h = fold_digest(self.h, ev.key_id);
            self.h = fold_digest(self.h, u64::from(ev.shortcut_hit));
            self.h = fold_digest(self.h, ev.matches);
            self.h = fold_digest(self.h, ev.answer);
            for v in ev.visits {
                self.h = fold_digest(self.h, u64::from(v.node.index()));
                self.h = fold_digest(self.h, u64::from(v.footprint));
            }
        }

        fn lock_group(&mut self, group: &LockGroup) {
            self.h = fold_digest(self.h, u64::from(group.node.index()));
            self.h = fold_digest(self.h, u64::from(group.size));
        }

        fn batch_end(&mut self, index: usize) {
            self.h = fold_digest(self.h, !(index as u64));
        }
    }

    #[test]
    fn thread_counts_are_observationally_identical() {
        // The tentpole invariant: stats, tree, and the full event stream
        // must not depend on the worker count. Mix E exercises scans and
        // writes, the two paths with the most cross-bucket machinery.
        let keys = Workload::Ipgeo.generate(3_000, 5);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 12_000, mix: Mix::E, ..Default::default() },
        );
        let cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
        for (batch_size, ops) in lookahead_batch_shapes(&ops) {
            let mut runs = [1usize, 2, 8].map(|threads| {
                let mut d = StreamDigest::default();
                let (tree, stats, _) =
                    exec(&keys, ops, &cfg, batch_size, ExecOpts { threads, ..SERIAL }, &mut d);
                let pairs: Vec<(Key, u64)> = tree.iter().map(|(k, &v)| (k.clone(), v)).collect();
                (format!("{stats:?}"), d.h, pairs)
            });
            let (base_stats, base_digest, base_pairs) = runs[0].clone();
            assert!(base_digest != 0, "stream digest actually folded events");
            for (stats, digest, pairs) in runs.iter_mut().skip(1) {
                assert_eq!(*stats, base_stats, "stats identical across thread counts");
                assert_eq!(*digest, base_digest, "event stream identical across thread counts");
                assert_eq!(*pairs, base_pairs, "final tree identical across thread counts");
            }
        }
    }

    /// The batch shapes the cross-configuration tests compare under: the
    /// production-like 1024; the server's 64, which gives each of the 16
    /// shards about 4 ops, so that nearly every hint comes from the
    /// pre-roll of `run_batch`; and batches of 1, 3 and `2 * LOOKAHEAD + 1`
    /// (over a prefix of the stream, to bound the per-batch overhead) so
    /// that shard slices shorter than, as long as and just past the
    /// prefetch window all occur.
    fn lookahead_batch_shapes(ops: &[Op]) -> [(usize, &[Op]); 5] {
        [
            (1024, ops),
            (64, ops),
            (1, &ops[..200]),
            (3, &ops[..600]),
            (2 * LOOKAHEAD + 1, &ops[..1_800]),
        ]
    }

    /// Traverse with and without the descent window must be
    /// observationally identical — full event stream, stats, final tree —
    /// across workload shapes, fault plans, and worker counts.
    #[test]
    fn traverse_modes_are_observationally_identical() {
        let chaos = FaultPlan { seed: 42, shortcut_corrupt_rate: 0.05, ..FaultPlan::none() };
        for workload in [Workload::Ipgeo, Workload::Dict, Workload::DenseInt] {
            let keys = workload.generate(2_000, 5);
            let ops = generate_ops(
                &keys,
                &OpStreamConfig { count: 8_000, mix: Mix::E, ..Default::default() },
            );
            for faults in [FaultPlan::none(), chaos] {
                let cfg =
                    DcartConfig { faults, ..DcartConfig::default() }.with_auto_prefix_skip(&keys);
                for (batch_size, ops) in lookahead_batch_shapes(&ops) {
                    for threads in [1usize, 2, 8] {
                        let mut results =
                            [TraverseMode::LevelWise, TraverseMode::PerOp].map(|mode| {
                                let mut d = StreamDigest::default();
                                let opts = ExecOpts { threads, mode, steal: false };
                                let (tree, stats, _) =
                                    exec(&keys, ops, &cfg, batch_size, opts, &mut d);
                                let pairs: Vec<(Key, u64)> =
                                    tree.iter().map(|(k, &v)| (k.clone(), v)).collect();
                                (format!("{stats:?}"), d.h, pairs)
                            });
                        let (per_op_stats, per_op_digest, per_op_pairs) =
                            std::mem::take(&mut results[1]);
                        let (lw_stats, lw_digest, lw_pairs) = std::mem::take(&mut results[0]);
                        let ctx =
                            format!("workload={workload:?} threads={threads} batch={batch_size}");
                        assert_eq!(lw_stats, per_op_stats, "stats identical: {ctx}");
                        assert_eq!(lw_digest, per_op_digest, "event stream identical: {ctx}");
                        assert_eq!(lw_pairs, per_op_pairs, "final tree identical: {ctx}");
                    }
                }
            }
        }
    }

    fn digests(mix: Mix, cfg: DcartConfig) -> (CttStats, Vec<(Key, u64)>) {
        let keys = Workload::Ipgeo.generate(5_000, 1);
        let ops = generate_ops(&keys, &OpStreamConfig { count: 20_000, mix, ..Default::default() });
        let (tree, stats, _) = exec(&keys, &ops, &cfg, 4096, SERIAL, &mut Collector::default());
        (stats, tree.iter().map(|(k, &v)| (k.clone(), v)).collect())
    }

    #[test]
    fn corruption_faults_never_change_answers() {
        use dcart_engine::FaultPlan;
        let clean_cfg = DcartConfig::default();
        let mut faulty_cfg = clean_cfg;
        faulty_cfg.faults =
            FaultPlan { seed: 42, shortcut_corrupt_rate: 0.05, ..FaultPlan::none() };
        let (clean, clean_tree) = digests(Mix::E, clean_cfg);
        let (faulty, faulty_tree) = digests(Mix::E, faulty_cfg);
        assert_eq!(clean.answer_digest, faulty.answer_digest, "answers bit-identical");
        assert_eq!(clean_tree, faulty_tree, "final tree contents identical");
        assert_eq!(clean.shortcut.corruptions_injected, 0);
        assert!(faulty.shortcut.corruptions_injected > 0, "{:?}", faulty.shortcut);
        assert!(faulty.shortcut.corruption_fallbacks > 0, "validate-then-fallback fired");
        assert!(faulty.shortcut.hits < clean.shortcut.hits, "corruption costs hits, never answers");
    }

    #[test]
    fn heavy_corruption_trips_the_degradation_controller() {
        use dcart_engine::FaultPlan;
        let clean_cfg = DcartConfig::default();
        let mut faulty_cfg = clean_cfg;
        faulty_cfg.faults = FaultPlan { seed: 7, shortcut_corrupt_rate: 0.6, ..FaultPlan::none() };
        faulty_cfg.degrade.shortcut_stale_threshold = 0.3;
        faulty_cfg.degrade.window = 128;
        let (clean, clean_tree) = digests(Mix::C, clean_cfg);
        let (faulty, faulty_tree) = digests(Mix::C, faulty_cfg);
        // Sticky per-bucket latches: at least one shard trips, none more
        // than once.
        assert!(faulty.shortcut_disables >= 1, "at least one shard latches");
        assert!(
            faulty.shortcut_disables <= DcartConfig::default().buckets() as u64,
            "at most one latch per bucket: {}",
            faulty.shortcut_disables
        );
        assert_eq!(clean.answer_digest, faulty.answer_digest, "degraded mode stays correct");
        assert_eq!(clean_tree, faulty_tree);
        assert_eq!(clean.shortcut_disables, 0);
    }

    #[test]
    fn fault_free_runs_never_degrade() {
        let (stats, _) = digests(Mix::E, DcartConfig::default());
        assert_eq!(stats.shortcut_disables, 0);
        assert_eq!(stats.shortcut.corruptions_injected, 0);
        assert_eq!(stats.shortcut.corruption_fallbacks, 0);
    }

    #[test]
    fn sub_zero_namespace_matches_the_unsplit_layout() {
        // Default (never-split) runs must keep their exact historical node
        // ids: sub 0 reproduces the pre-split `bucket << 24` packing.
        let node = NodeId::from_index(12_345);
        assert_eq!(namespaced(9, 0, node).index(), (9 << SHARD_NODE_BITS) | 12_345);
        // And the full (bucket, sub) grid never aliases.
        let mut seen = std::collections::HashSet::new();
        for sub in 0..SPLIT_FANOUT {
            for bucket in 0..MAX_SPLIT_BUCKETS {
                assert!(seen.insert(namespaced(bucket, sub, node).index()), "{bucket}/{sub}");
            }
        }
    }

    #[test]
    fn aggressive_splitting_preserves_answers_and_tree() {
        // Sub-shards partition each bucket's key space, so splitting is an
        // execution strategy: answers and the final tree must match the
        // never-split run exactly, for any threshold.
        let keys = Workload::Ipgeo.generate(3_000, 5);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 12_000, mix: Mix::E, ..Default::default() },
        );
        let base = DcartConfig::default().with_auto_prefix_skip(&keys);
        let run = |threshold: f64| {
            let cfg = DcartConfig { split_threshold: Some(threshold), ..base };
            let (tree, stats, load) =
                exec(&keys, &ops, &cfg, 1024, SERIAL, &mut Collector::default());
            (tree_digest(&tree), stats, load)
        };
        let (never_tree, never_stats, never_load) = run(1.0);
        let (split_tree, split_stats, split_load) = run(0.02);
        assert_eq!(never_stats.shard_splits, 0, "threshold 1.0 never splits");
        assert!(split_stats.shard_splits > 0, "aggressive threshold splits: {split_load:?}");
        assert_eq!(split_tree, never_tree, "final tree split-invariant");
        assert_eq!(split_stats.answer_digest, never_stats.answer_digest, "answers split-invariant");
        assert_eq!(split_stats.ops, never_stats.ops);
        // The deterministic half of the load report is threshold-independent.
        let ops_of = |load: &LoadReport| load.buckets.iter().map(|b| b.ops).collect::<Vec<_>>();
        assert_eq!(ops_of(&split_load), ops_of(&never_load), "routing histogram identical");
    }

    #[test]
    fn session_entries_and_len_read_the_live_shards() {
        // The read-side accessors against the merged tree, batch by batch,
        // while buckets are split into sub-shards (and some re-merge).
        let keys = Workload::Dict.generate(1_500, 9);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 6_000, mix: Mix::E, ..Default::default() },
        );
        let cfg = DcartConfig { split_threshold: Some(0.02), ..DcartConfig::default() };
        let pairs: Vec<(Key, u64)> = keys.keys.iter().cloned().zip(0u64..).collect();
        let mut session = CttSession::from_pairs(&pairs, &cfg, &SERIAL, 512, 0).expect("loads");
        let loaded: std::collections::BTreeMap<&Key, u64> =
            pairs.iter().map(|(k, v)| (k, *v)).collect();
        assert!(session.entries().eq(loaded), "the load, in key order");
        for batch in ops.chunks(512) {
            session.execute_batch(batch, &mut Collector::default()).expect("runs clean");
            let tree = session.tree().expect("merges");
            assert_eq!(session.len(), tree.len());
            assert!(!session.is_empty());
            assert!(session.entries().eq(tree.iter().map(|(k, &v)| (k, v))));
        }
        assert!(session.groups.iter().any(|g| g.subs > 1), "some bucket is split right now");
        let (_, stats, _) = session.finish().expect("finishes");
        assert!(stats.shard_splits > 0 && stats.writes > 0);

        let empty = CttSession::from_pairs(&[], &cfg, &SERIAL, 512, 0).expect("opens empty");
        assert!(empty.is_empty() && empty.entries().next().is_none());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn hot_buckets_split_then_remerge_after_cooling() {
        let keys = Workload::Ipgeo.generate(2_000, 3);
        let hot = keys.keys[0].clone();
        // Two all-hot batches (one bucket takes everything), then four
        // spread batches that let the bucket cool past MERGE_PATIENCE.
        let mut ops: Vec<Op> = Vec::new();
        for _ in 0..512 {
            ops.push(Op { kind: OpKind::Read, key: hot.clone(), value: 0 });
        }
        for i in 0..1024 {
            let key = keys.keys[i % keys.keys.len()].clone();
            ops.push(Op { kind: OpKind::Read, key, value: 0 });
        }
        let cfg = DcartConfig { split_threshold: Some(0.5), ..DcartConfig::default() }
            .with_auto_prefix_skip(&keys);
        let opts = ExecOpts { threads: 2, mode: TraverseMode::LevelWise, steal: true };
        let (_, stats, load) = exec(&keys, &ops, &cfg, 256, opts, &mut Collector::default());
        assert!(stats.shard_splits >= 1, "hot bucket split: {load:?}");
        assert!(stats.shard_merges >= 1, "cooled bucket re-merged: {load:?}");
        let hottest = load.buckets.iter().max_by_key(|b| b.ops).expect("non-empty");
        assert!(hottest.splits >= 1, "the hottest bucket is the one that split");
        assert_eq!(hottest.subs_at_end, 1, "merged back to one leaf by run end");
    }

    #[test]
    fn splitting_runs_are_identical_across_threads_and_stealing() {
        // The tentpole invariant at full strength: with an aggressive split
        // threshold, stats, the event stream, the load report and the final
        // tree must be byte-identical across worker counts and steal
        // settings — the split schedule reads op counts, never the schedule.
        let keys = Workload::Ipgeo.generate(3_000, 5);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 12_000, mix: Mix::E, ..Default::default() },
        );
        let cfg = DcartConfig { split_threshold: Some(0.05), ..DcartConfig::default() }
            .with_auto_prefix_skip(&keys);
        let mut runs = [1usize, 2, 8].into_iter().flat_map(|threads| {
            [false, true].map(|steal| {
                let mut d = StreamDigest::default();
                let opts = ExecOpts { threads, mode: TraverseMode::LevelWise, steal };
                let (tree, stats, load) = exec(&keys, &ops, &cfg, 1024, opts, &mut d);
                assert!(stats.shard_splits > 0, "the aggressive threshold actually splits");
                (format!("{stats:?}"), d.h, load, tree_digest(&tree))
            })
        });
        let (base_stats, base_digest, base_load, base_tree) = runs.next().expect("serial run");
        assert!(base_digest != 0, "stream digest actually folded events");
        for (stats, digest, load, tree) in runs {
            assert_eq!(stats, base_stats, "stats identical across threads × steal");
            assert_eq!(digest, base_digest, "event stream identical across threads × steal");
            assert_eq!(load, base_load, "load report identical across threads × steal");
            assert_eq!(tree, base_tree, "final tree identical across threads × steal");
        }
    }
}
