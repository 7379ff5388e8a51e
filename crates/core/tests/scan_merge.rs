//! The batch-end scan merge: pinned observables of a scan-heavy stream and
//! model tests of the cases the prefix-frontier logic can get wrong.
//!
//! The pins were captured on the commit *before* the single-pass merge
//! (three passes: materialise `limit` items per shard, probe, re-walk) and
//! fold every field of every visit, so any deviation of the cursor's visit
//! stream, the watermark truncation or the frontier's leaf selection shows
//! here. They are constants, not regenerated: a mismatch is a bug.

use std::collections::BTreeMap;

use dcart::{
    execute_ctt, fold_digest, tree_digest, BatchEvent, CttConsumer, CttOpEvent, CttSession,
    DcartConfig, ExecOpts, LockGroup, TraverseMode,
};
use dcart_art::{Key, NodeType, VisitKind};
use dcart_workloads::{generate_ops, Mix, Op, OpKind, OpStreamConfig, Workload};

/// Folds the whole event stream — every field of every visit included —
/// into one digest.
#[derive(Default)]
struct FullStreamDigest {
    h: u64,
}

impl FullStreamDigest {
    fn fold(&mut self, x: u64) {
        self.h = fold_digest(self.h, x);
    }
}

impl CttConsumer for FullStreamDigest {
    fn batch_start(&mut self, ev: &BatchEvent<'_>) {
        self.fold(ev.index as u64);
        for &s in ev.bucket_sizes {
            self.fold(u64::from(s));
        }
    }

    fn op(&mut self, ev: &CttOpEvent<'_>) {
        for x in [
            ev.batch as u64,
            u64::from(ev.op_index),
            ev.bucket as u64,
            ev.key_id,
            u64::from(ev.shortcut_hit),
            u64::from(ev.generated_shortcut),
            ev.matches,
            u64::from(ev.bucket_ops),
            ev.answer,
            ev.value.map_or(u64::MAX, |v| v ^ 1),
            ev.visits.len() as u64,
        ] {
            self.fold(x);
        }
        for v in ev.visits {
            let kind = match v.kind {
                VisitKind::Leaf => 0,
                VisitKind::Inner(NodeType::N4) => 4,
                VisitKind::Inner(NodeType::N16) => 16,
                VisitKind::Inner(NodeType::N48) => 48,
                VisitKind::Inner(NodeType::N256) => 256,
            };
            for x in [
                u64::from(v.node.index()),
                kind,
                u64::from(v.footprint),
                u64::from(v.lines),
                u64::from(v.useful_bytes),
            ] {
                self.fold(x);
            }
        }
    }

    fn lock_group(&mut self, group: &LockGroup) {
        self.fold(u64::from(group.node.index()));
        self.fold(u64::from(group.size));
    }

    fn batch_end(&mut self, index: usize) {
        self.fold(!(index as u64));
    }
}

/// One pinned cell: `(full stream digest, tree digest)`.
fn run_cell(workload: Workload, split: f64, threads: usize) -> (u64, u64) {
    let keys = workload.generate(3_000, 17);
    let ops = generate_ops(
        &keys,
        &OpStreamConfig { count: 8_000, mix: Mix::C.with_scans(0.3), theta: 0.99, seed: 17 },
    );
    let mut cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
    cfg.split_threshold = Some(split);
    if workload == Workload::DenseInt {
        assert!(cfg.prefix_skip_bytes > 0, "dense integers share their high bytes");
    }
    let opts = ExecOpts { threads, mode: TraverseMode::LevelWise, steal: false };
    let mut sink = FullStreamDigest::default();
    let (tree, stats, _) =
        execute_ctt(&keys, &ops, &cfg, 1_024, &opts, &mut sink).expect("fault-free");
    assert_eq!(split < 0.5, stats.shard_splits > 0, "{workload:?}: split schedule as intended");
    (sink.h, tree_digest(&tree))
}

/// `(workload, split threshold, full stream digest, tree digest)` of
/// `Mix::C.with_scans(0.3)`, 3 000 keys, 8 000 ops, batches of 1 024.
const PINS: [(Workload, f64, u64, u64); 6] = [
    (Workload::Ipgeo, 1.0, 0xe8a13f5c8647ea0b, 0x4a45812b5a64f43a),
    (Workload::Ipgeo, 0.02, 0xd6dd242db165dae3, 0x4a45812b5a64f43a),
    (Workload::Dict, 1.0, 0xb697935b76c3f917, 0x718650282caaa113),
    (Workload::Dict, 0.02, 0x36e4b8f308a7e49f, 0x718650282caaa113),
    (Workload::DenseInt, 1.0, 0x90eaf62ac4f05eb3, 0xebc1a56e0f6e9a8b),
    (Workload::DenseInt, 0.02, 0x4fe883e90267bedd, 0xebc1a56e0f6e9a8b),
];

#[test]
fn scan_heavy_stream_reproduces_every_pinned_visit() {
    for (workload, split, stream, tree) in PINS {
        for threads in [1usize, 2] {
            assert_eq!(
                run_cell(workload, split, threads),
                (stream, tree),
                "{workload:?} split {split} threads {threads}"
            );
        }
    }
}

/// FNV-64's offset basis: the seed of every answer digest.
const DIGEST_BASE: u64 = 0xcbf2_9ce4_8422_2325;

/// Collects `(value, answer)` per op of the batch in flight.
#[derive(Default)]
struct Answers {
    by_op: Vec<(Option<u64>, u64)>,
}

impl CttConsumer for Answers {
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        self.by_op[ev.op_index as usize] = (ev.value, ev.answer);
    }
}

fn scan(start: Key, limit: u64) -> Op {
    Op { kind: OpKind::Scan, key: start, value: limit }
}

fn insert(key: Key, value: u64) -> Op {
    Op { kind: OpKind::Insert, key, value }
}

fn read(key: Key) -> Op {
    Op { kind: OpKind::Read, key, value: 0 }
}

/// Runs `batches` through one session (at 1 and at 2 worker threads) and
/// checks every answer against a `BTreeMap`: point operations in
/// submission order, scans against the state at the end of their batch —
/// the number of items *and* the digest of exactly those items in key
/// order. Returns the run's shard-split count.
fn check_against_model(pairs: &[(Key, u64)], cfg: &DcartConfig, batches: &[Vec<Op>]) -> u64 {
    let mut splits = 0;
    for threads in [1usize, 2] {
        let opts = ExecOpts { threads, mode: TraverseMode::LevelWise, steal: false };
        let mut session = CttSession::from_pairs(pairs, cfg, &opts, 64, 0).expect("prefix-free");
        let mut model: BTreeMap<Key, u64> = pairs.iter().cloned().collect();
        for (b, batch) in batches.iter().enumerate() {
            let mut got = Answers { by_op: vec![(None, 0); batch.len()] };
            session.execute_batch(batch, &mut got).expect("prefix-free");
            let point: Vec<Option<u64>> = batch
                .iter()
                .map(|op| match op.kind {
                    OpKind::Read => model.get(&op.key).copied(),
                    OpKind::Update | OpKind::Insert => model.insert(op.key.clone(), op.value),
                    OpKind::Remove => model.remove(&op.key),
                    OpKind::Scan => None,
                })
                .collect();
            for (i, op) in batch.iter().enumerate() {
                let at = format!("threads {threads} batch {b} op {i} {:?} {:?}", op.kind, op.key);
                if op.kind != OpKind::Scan {
                    assert_eq!(got.by_op[i].0, point[i], "{at}");
                    continue;
                }
                let limit = usize::try_from(op.value).unwrap_or(usize::MAX);
                let items: Vec<(&Key, &u64)> = model.range(op.key.clone()..).take(limit).collect();
                let mut answer = fold_digest(DIGEST_BASE, items.len() as u64);
                for (k, &v) in &items {
                    answer = fold_digest(fold_digest(answer, dcart::key_id(k)), v);
                }
                assert_eq!(got.by_op[i], (Some(items.len() as u64), answer), "{at}");
            }
        }
        let (tree, stats, _) = session.finish().expect("shards merge");
        let end: Vec<(Key, u64)> = tree.iter().map(|(k, &v)| (k.clone(), v)).collect();
        assert_eq!(end, model.into_iter().collect::<Vec<_>>());
        splits = stats.shard_splits;
    }
    splits
}

/// 4-byte keys whose first byte (the default combining prefix) is `prefix`.
fn key4(prefix: u8, rest: u32) -> Key {
    let r = rest.to_be_bytes();
    Key::from_raw(vec![prefix, r[1], r[2], r[3]])
}

#[test]
fn scans_that_cross_more_prefixes_than_there_are_buckets_wrap_correctly() {
    // One key per prefix 0..40 over 16 buckets: a 30-item scan from prefix
    // 3 runs through every bucket and comes back into its own (3, 19, 35).
    let dense: Vec<(Key, u64)> = (0..40u8).map(|p| (key4(p, 7), u64::from(p))).collect();
    let batch = vec![
        scan(key4(3, 0), 30),
        scan(key4(3, 7), 17),
        scan(key4(3, 8), 16),
        scan(key4(39, 7), 5),
        scan(Key::from_raw(vec![0x00]), u64::MAX),
    ];
    assert_eq!(check_against_model(&dense, &DcartConfig::default(), &[batch]), 0);

    // Two keys 195 prefixes apart: the frontier opens every bucket on the
    // way without finding a head, then falls through to the far key.
    let sparse = vec![(key4(5, 1), 1), (key4(200, 1), 2)];
    let batch = vec![
        scan(key4(0, 0), 10),
        scan(key4(5, 2), 10),
        scan(key4(6, 0), 1),
        scan(key4(201, 0), 3),
    ];
    check_against_model(&sparse, &DcartConfig::default(), &[batch]);
}

#[test]
fn scans_over_a_split_bucket_interleave_its_sub_shards() {
    // Every key in bucket 0 (prefix 0x10); the second byte, which picks
    // the sub-shard modulo the fan-out, runs through 0..64.
    let pairs: Vec<(Key, u64)> =
        (0..64u32).map(|i| (key4(0x10, i << 16 | 5), u64::from(i))).collect();
    let cfg = DcartConfig { split_threshold: Some(0.02), ..DcartConfig::default() };
    let hot: Vec<Op> = (0..8u32).map(|i| read(key4(0x10, i << 16 | 5))).collect();
    let scans = [
        scan(key4(0x10, 0), 64),
        scan(key4(0x10, 3 << 16 | 5), 9),
        scan(key4(0x10, 3 << 16 | 6), 9),
        scan(key4(0x0f, 0), 3),
        scan(key4(0x10, 63 << 16 | 6), 3),
        scan(key4(0x10, 60 << 16), u64::MAX),
    ];
    let first: Vec<Op> = hot.iter().cloned().chain(scans.iter().cloned()).collect();
    // A write into one sub-shard between the scans of a later batch.
    let second: Vec<Op> = hot
        .iter()
        .cloned()
        .chain([insert(key4(0x10, 3 << 16 | 6), 99), insert(key4(0x11, 0), 100)])
        .chain(scans.iter().cloned())
        .collect();
    assert!(check_against_model(&pairs, &cfg, &[first, second]) > 0, "the hot bucket split");
}

/// 8-byte integers that share their five high bytes (`00 00 01 00 00`) and
/// spread over every value of the sixth — the combining prefix once the
/// shared run is skipped.
const DENSE_BASE: u64 = 0x0000_0100_0000_0000;

fn dense(i: u64) -> Key {
    Key::from_u64(DENSE_BASE + 0x1_0000 + i * 0x5555)
}

fn dense_int_pairs() -> (Vec<(Key, u64)>, DcartConfig) {
    let pairs: Vec<(Key, u64)> = (0..600).map(|i| (dense(i), i)).collect();
    let cfg = DcartConfig { prefix_skip_bytes: 5, ..DcartConfig::default() };
    let prefixes: std::collections::BTreeSet<u64> =
        pairs.iter().map(|(k, _)| k.prefix_bits_at(5, 8)).collect();
    assert!(prefixes.len() > 100, "the keys spread over the combining prefixes");
    (pairs, cfg)
}

#[test]
fn start_keys_outside_the_skipped_prefix_fall_back_to_every_leaf() {
    let (pairs, cfg) = dense_int_pairs();
    let batch = vec![
        scan(Key::from_raw(vec![0xff; 8]), 10),
        scan(Key::from_raw(vec![0x00; 8]), 10),
        // Smaller skipped bytes, large combining byte: everything follows.
        scan(Key::from_raw(vec![0, 0, 0, 0, 0, 0x80, 0, 0]), 40),
        // Larger skipped bytes, small combining byte: nothing follows.
        scan(Key::from_raw(vec![0, 0, 2, 0, 0, 0, 0, 0]), 40),
        // Shorter than the skipped run.
        scan(Key::from_raw(vec![0x00, 0x00]), 10),
        scan(Key::from_raw(vec![0x00, 0x00, 0x01]), 10),
        scan(Key::from_raw(vec![0x00, 0x00, 0x02]), 10),
        // Inside the key range, on and between keys.
        scan(Key::from_raw(vec![0, 0, 1, 0, 0, 0x80]), 40),
        scan(dense(300), 100),
        scan(Key::from_u64(DENSE_BASE + 0x1_0000 + 300 * 0x5555 + 1), 100),
    ];
    check_against_model(&pairs, &cfg, &[batch]);
}

#[test]
fn start_beyond_the_maximum_key_and_degenerate_limits() {
    let (pairs, cfg) = dense_int_pairs();
    let batch = vec![
        scan(Key::from_u64(DENSE_BASE + 0x1_0000 + 599 * 0x5555 + 1), 10),
        scan(Key::from_u64(DENSE_BASE + 0xff_ff00), 10),
        scan(dense(599), 10),
        scan(dense(599), 0),
        scan(dense(0), 0),
        scan(dense(0), u64::MAX),
        scan(Key::from_u64(0), u64::MAX),
    ];
    check_against_model(&pairs, &cfg, &[batch]);

    let pairs: Vec<(Key, u64)> = (0..40u8).map(|p| (key4(p * 6, 1), u64::from(p))).collect();
    let batch = vec![
        scan(key4(0xff, 0xff_ffff), 4),
        scan(key4(39 * 6, 2), 4),
        scan(key4(0, 0), 0),
        scan(key4(100, 0), u64::MAX),
    ];
    check_against_model(&pairs, &DcartConfig::default(), &[batch]);
}

#[test]
fn an_insert_that_breaks_the_skipped_prefix_is_seen_by_the_next_scan() {
    let (pairs, cfg) = dense_int_pairs();
    // Its combining prefix (byte 5) is among the largest, yet it is the
    // smallest key: once it is stored, prefix order is no longer key order.
    let outlier = Key::from_u64(0xf0_0000);
    let scans = vec![
        scan(Key::from_u64(0), 5),
        scan(Key::from_u64(0), u64::MAX),
        scan(outlier.clone(), 2),
        scan(dense(10), 30),
        scan(dense(590), 20),
    ];
    let with =
        |extra: Op| -> Vec<Op> { std::iter::once(extra).chain(scans.iter().cloned()).collect() };
    let batches = vec![
        scans.clone(),
        with(insert(outlier.clone(), 7)),
        scans.clone(),
        with(Op { kind: OpKind::Remove, key: outlier, value: 0 }),
        scans.clone(),
    ];
    check_against_model(&pairs, &cfg, &batches);
}
