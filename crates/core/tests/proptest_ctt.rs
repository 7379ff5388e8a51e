//! Property-based tests of the CTT executor: functional equivalence with
//! operation-centric execution and conservation laws on its statistics,
//! under randomized workloads, mixes, batch sizes, and config knobs.

use dcart::{
    execute_ctt, fold_digest, BatchEvent, CttConsumer, CttOpEvent, DcartConfig, ExecOpts,
    FaultPlan, LockGroup, TraverseMode,
};
use dcart_art::Key;
use dcart_baselines::execute_with_traces;
use dcart_mem::BufferPolicy;
use dcart_workloads::{KeySet, Op, OpKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a small key set directly (no workload generator) so proptest
/// controls the shape.
fn key_set(keys: Vec<u64>, pool: Vec<u64>) -> KeySet {
    use rand::seq::SliceRandom;
    use std::collections::BTreeSet;
    let mut rng = StdRng::seed_from_u64(1);
    let keyset: BTreeSet<u64> = keys.into_iter().collect();
    let pool: Vec<Key> =
        pool.into_iter().filter(|p| !keyset.contains(p)).map(Key::from_u64).collect();
    let keys: Vec<Key> = keyset.into_iter().map(Key::from_u64).collect();
    let mut popularity: Vec<u32> = (0..keys.len() as u32).collect();
    popularity.shuffle(&mut rng);
    KeySet { name: "prop".to_string(), keys, insert_pool: pool, popularity }
}

#[derive(Default)]
struct Audit {
    ops: u64,
    hits: u64,
    misses: u64,
    group_members: u64,
    lock_groups: u64,
    batches_seen: Vec<usize>,
}

impl CttConsumer for Audit {
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        self.ops += 1;
        if ev.shortcut_hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    fn lock_group(&mut self, group: &LockGroup) {
        self.lock_groups += 1;
        self.group_members += u64::from(group.size);
    }

    fn batch_end(&mut self, index: usize) {
        self.batches_seen.push(index);
    }
}

fn op_strategy() -> impl Strategy<Value = (u8, u64)> {
    // (kind selector, key selector)
    (0u8..10, 0u64..256)
}

/// Folds every observable of the event stream into one digest, so two runs
/// can be compared event-for-event without storing the streams.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CTT execution ends in exactly the same tree as plain execution, for
    /// any batch size, mix, and shortcut setting.
    #[test]
    fn ctt_equals_plain_execution(
        loaded in proptest::collection::btree_set(0u64..256, 1..80),
        raw_ops in proptest::collection::vec(op_strategy(), 1..300),
        batch_size in 1usize..128,
        shortcuts in any::<bool>(),
        value_aware in any::<bool>(),
    ) {
        let keys = key_set(loaded.iter().copied().collect(), (256..320u64).collect());
        let ops: Vec<Op> = raw_ops
            .iter()
            .enumerate()
            .map(|(i, &(k, key))| {
                let kind = match k {
                    0..=3 => OpKind::Read,
                    4..=6 => OpKind::Update,
                    7..=8 => OpKind::Insert,
                    _ => OpKind::Remove,
                };
                let key = match kind {
                    OpKind::Insert => {
                        keys.insert_pool[(key as usize) % keys.insert_pool.len()].clone()
                    }
                    _ => keys.keys[(key as usize) % keys.keys.len()].clone(),
                };
                Op { kind, key, value: i as u64 }
            })
            .collect();

        let cfg = DcartConfig {
            shortcuts_enabled: shortcuts,
            tree_buffer_policy: if value_aware { BufferPolicy::ValueAware } else { BufferPolicy::Lru },
            ..Default::default()
        };

        let mut audit = Audit::default();
        let (ctt_tree, stats, _) =
            execute_ctt(&keys, &ops, &cfg, batch_size, &ExecOpts::default(), &mut audit).unwrap();
        let plain_tree = execute_with_traces(&keys, &ops, |_| {});

        // Functional equivalence: same keys, same order. (Values can differ
        // within a batch: concurrent same-key writes may serialize in any
        // order, which the CTT model exploits.)
        let a: Vec<Key> = ctt_tree.iter().map(|(k, _)| k.clone()).collect();
        let b: Vec<Key> = plain_tree.iter().map(|(k, _)| k.clone()).collect();
        prop_assert_eq!(a, b);
        prop_assert!(ctt_tree.check_invariants().is_empty());

        // Conservation laws.
        prop_assert_eq!(stats.ops, ops.len() as u64);
        prop_assert_eq!(audit.ops, stats.ops);
        prop_assert_eq!(stats.reads + stats.writes, stats.ops);
        prop_assert_eq!(audit.hits, stats.shortcut.hits);
        prop_assert_eq!(audit.lock_groups, stats.lock_groups);
        prop_assert!(stats.lock_groups <= stats.per_op_locks);
        if !shortcuts {
            prop_assert_eq!(stats.shortcut.hits, 0);
        }

        // Batch accounting.
        let expect_batches = ops.len().div_ceil(batch_size);
        prop_assert_eq!(stats.batches, expect_batches as u64);
        prop_assert_eq!(audit.batches_seen, (0..expect_batches).collect::<Vec<_>>());
    }

    /// Traverse with the descent window is observationally identical to
    /// Traverse without it: the full event stream (visit paths, lock
    /// groups, answers, shortcut hits), every statistic, and the final
    /// tree all match exactly, for any op stream, batch size, shortcut
    /// setting, fault plan, and worker count.
    #[test]
    fn traverse_modes_agree_on_random_streams(
        loaded in proptest::collection::btree_set(0u64..256, 1..80),
        raw_ops in proptest::collection::vec(op_strategy(), 1..300),
        batch_size in 1usize..128,
        shortcuts in any::<bool>(),
        chaos in any::<bool>(),
        threads_sel in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][threads_sel];
        let keys = key_set(loaded.iter().copied().collect(), (256..320u64).collect());
        let ops: Vec<Op> = raw_ops
            .iter()
            .enumerate()
            .map(|(i, &(k, key))| {
                let kind = match k {
                    0..=3 => OpKind::Read,
                    4..=5 => OpKind::Update,
                    6 => OpKind::Insert,
                    7 => OpKind::Remove,
                    _ => OpKind::Scan,
                };
                let key = match kind {
                    OpKind::Insert => {
                        keys.insert_pool[(key as usize) % keys.insert_pool.len()].clone()
                    }
                    _ => keys.keys[(key as usize) % keys.keys.len()].clone(),
                };
                // Scans carry their length in `value`; keep it small.
                let value = if kind == OpKind::Scan { (i as u64 % 7) + 1 } else { i as u64 };
                Op { kind, key, value }
            })
            .collect();
        let faults = if chaos {
            FaultPlan { seed: 42, shortcut_corrupt_rate: 0.05, ..FaultPlan::none() }
        } else {
            FaultPlan::none()
        };
        let cfg = DcartConfig { shortcuts_enabled: shortcuts, faults, ..Default::default() };

        let mut results = [TraverseMode::LevelWise, TraverseMode::PerOp].map(|mode| {
            let mut d = StreamDigest::default();
            let opts = ExecOpts { threads, mode, steal: false };
            let (tree, stats, _) =
                execute_ctt(&keys, &ops, &cfg, batch_size, &opts, &mut d).unwrap();
            let pairs: Vec<(Key, u64)> = tree.iter().map(|(k, &v)| (k.clone(), v)).collect();
            (format!("{stats:?}"), d.h, pairs)
        });
        let (per_op_stats, per_op_digest, per_op_pairs) = std::mem::take(&mut results[1]);
        let (lw_stats, lw_digest, lw_pairs) = std::mem::take(&mut results[0]);
        prop_assert_eq!(lw_stats, per_op_stats);
        prop_assert_eq!(lw_digest, per_op_digest);
        prop_assert_eq!(lw_pairs, per_op_pairs);
    }

    /// Group memberships cover every write at least once (no write escapes
    /// the Trigger stage's lock accounting).
    #[test]
    fn lock_groups_cover_writes(
        loaded in proptest::collection::btree_set(0u64..128, 1..50),
        n_ops in 1usize..200,
        batch_size in 1usize..64,
    ) {
        let keys = key_set(loaded.iter().copied().collect(), (128..160u64).collect());
        let ops: Vec<Op> = (0..n_ops)
            .map(|i| Op {
                kind: OpKind::Update,
                key: keys.keys[i % keys.keys.len()].clone(),
                value: i as u64,
            })
            .collect();
        let mut audit = Audit::default();
        let (_, stats, _) = execute_ctt(
            &keys, &ops, &DcartConfig::default(), batch_size, &ExecOpts::default(), &mut audit,
        )
        .unwrap();
        prop_assert_eq!(stats.writes, n_ops as u64);
        prop_assert!(audit.group_members >= stats.writes,
            "members {} < writes {}", audit.group_members, stats.writes);
    }
}
