//! Thread-count determinism of the data-parallel CTT executor.
//!
//! The executor fans a batch's prefix-disjoint buckets over a worker pool
//! and replays the recorded outcomes serially, so **every** observable —
//! stats, answer digest, final tree, serialized report JSON — must be
//! byte-identical whether the pool has 1, 2, or 8 threads. These tests pin
//! that contract on the three tier-1 workloads, fault-free and under
//! injected shortcut corruption.

use dcart::{
    execute_ctt, fold_digest, tree_digest, CttConsumer, CttOpEvent, CttStats, DcartConfig,
    ExecOpts, FaultPlan, LoadReport, TraverseMode,
};
use dcart_art::Key;
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

struct Sink;
impl CttConsumer for Sink {}

/// Folds every op event into one digest: any schedule-dependence in the
/// event stream (order, resolution path, answers) changes this value.
#[derive(Default)]
struct StreamDigest {
    h: u64,
}

impl CttConsumer for StreamDigest {
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        for x in [
            ev.batch as u64,
            ev.bucket as u64,
            ev.key_id,
            u64::from(ev.shortcut_hit),
            ev.visits.len() as u64,
            ev.matches,
            u64::from(ev.bucket_ops),
            ev.answer,
        ] {
            self.h = fold_digest(self.h, x);
        }
    }
}

/// One full execution: serialized stats JSON plus the final tree contents.
fn run(
    workload: Workload,
    threads: usize,
    faults: FaultPlan,
) -> (String, CttStats, Vec<(Key, u64)>) {
    let keys = workload.generate(4_000, 17);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: 16_000, mix: Mix::E, theta: 0.99, seed: 17 });
    let mut cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
    cfg.faults = faults;
    let opts = ExecOpts { threads, ..ExecOpts::default() };
    let (tree, stats, _) = execute_ctt(&keys, &ops, &cfg, 2_048, &opts, &mut Sink)
        .expect("fault plans are survivable");
    let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
    (json, stats, tree.iter().map(|(k, &v)| (k.clone(), v)).collect())
}

const WORKLOADS: [Workload; 3] = [Workload::Ipgeo, Workload::Dict, Workload::DenseInt];

#[test]
fn stats_json_and_tree_are_byte_identical_across_thread_counts() {
    for workload in WORKLOADS {
        let (base_json, base_stats, base_tree) = run(workload, 1, FaultPlan::none());
        assert!(base_stats.ops == 16_000, "{workload:?} executed every op");
        for threads in [2usize, 8] {
            let (json, _, tree) = run(workload, threads, FaultPlan::none());
            assert_eq!(
                json, base_json,
                "{workload:?}: serialized stats differ at {threads} threads"
            );
            assert_eq!(tree, base_tree, "{workload:?}: final tree differs at {threads} threads");
        }
    }
}

#[test]
fn fault_injection_stays_deterministic_and_correct_under_threading() {
    // Per-bucket fault streams make the injected-fault draw sequence a
    // function of the operation stream alone, so faulted runs must be as
    // thread-count-stable as clean ones — and still answer-identical to
    // the clean run (the chaos suite's differential invariant).
    let plan = FaultPlan { seed: 99, shortcut_corrupt_rate: 0.05, ..FaultPlan::none() };
    for workload in WORKLOADS {
        let (_, clean, clean_tree) = run(workload, 8, FaultPlan::none());
        let (base_json, base_stats, base_tree) = run(workload, 1, plan);
        assert!(
            base_stats.shortcut.corruptions_injected > 0,
            "{workload:?}: the fault plan actually fired"
        );
        assert!(
            base_stats.shortcut.corruption_fallbacks > 0,
            "{workload:?}: validate-then-fallback recovered"
        );
        assert_eq!(
            base_stats.answer_digest, clean.answer_digest,
            "{workload:?}: faults never change answers"
        );
        assert_eq!(base_tree, clean_tree, "{workload:?}: faults never change the tree");
        for threads in [2usize, 8] {
            let (json, _, tree) = run(workload, threads, plan);
            assert_eq!(json, base_json, "{workload:?}: faulted stats differ at {threads} threads");
            assert_eq!(tree, base_tree);
        }
    }
}

/// One profiled execution with an explicit split threshold and pool
/// schedule, digesting the full event stream.
fn run_cell(
    workload: Workload,
    mix: Mix,
    faults: FaultPlan,
    split: f64,
    threads: usize,
    steal: bool,
) -> (String, u64, u64, LoadReport, CttStats) {
    let keys = workload.generate(3_000, 17);
    let ops = generate_ops(&keys, &OpStreamConfig { count: 8_000, mix, theta: 0.99, seed: 17 });
    let mut cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
    cfg.faults = faults;
    cfg.split_threshold = Some(split);
    let opts = ExecOpts { threads, mode: TraverseMode::LevelWise, steal };
    let mut sink = StreamDigest::default();
    let (tree, stats, load) = execute_ctt(&keys, &ops, &cfg, 1_024, &opts, &mut sink)
        .expect("these fault plans never kill the run");
    let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
    (json, sink.h, tree_digest(&tree), load, stats)
}

/// The pool schedules whose observables must all coincide: {1, 2, 8}
/// threads, each claiming in slot order and heaviest first.
const SCHEDULES: [(usize, bool); 6] =
    [(1, false), (1, true), (2, false), (2, true), (8, false), (8, true)];

#[test]
fn split_schedules_are_pinned_across_threads_and_stealing() {
    // For a FIXED split threshold, every observable — stats JSON, the full
    // event stream, the load report, the final tree — is pinned across
    // thread counts and claim orders, fault-free and under chaos. Across
    // DIFFERENT thresholds the event stream legitimately differs (fresh
    // sub-shard shortcut tables resolve ops differently), but answers and
    // the final tree are split-invariant: sub-trees partition the bucket's
    // key space.
    let chaos = FaultPlan { seed: 99, shortcut_corrupt_rate: 0.05, ..FaultPlan::none() };
    for workload in WORKLOADS {
        for faults in [FaultPlan::none(), chaos] {
            let mut per_split = Vec::new();
            // 1.0 never splits; 0.02 splits any bucket above 2 % of a batch.
            for split in [1.0f64, 0.02] {
                let (base_json, base_stream, base_tree, base_load, base_stats) =
                    run_cell(workload, Mix::E, faults, split, 1, false);
                if split < 0.5 {
                    assert!(
                        base_stats.shard_splits > 0,
                        "{workload:?}: the aggressive threshold must actually split"
                    );
                } else {
                    assert_eq!(base_stats.shard_splits, 0);
                }
                for (threads, steal) in SCHEDULES {
                    let (json, stream, tree, load, _) =
                        run_cell(workload, Mix::E, faults, split, threads, steal);
                    assert_eq!(
                        json, base_json,
                        "{workload:?} split {split}: stats differ at {threads} threads"
                    );
                    assert_eq!(
                        stream, base_stream,
                        "{workload:?} split {split}: event stream differs at \
                         {threads} threads (steal {steal})"
                    );
                    assert_eq!(tree, base_tree, "{workload:?} split {split}: tree differs");
                    assert_eq!(
                        load, base_load,
                        "{workload:?} split {split}: load report differs at {threads} threads \
                         (steal {steal})"
                    );
                }
                per_split.push((base_tree, base_stats.answer_digest));
            }
            assert_eq!(
                per_split[0], per_split[1],
                "{workload:?}: answers and final tree are split-invariant"
            );
        }
    }
}

/// Observables of a scan-heavy stream (`Mix::C`, 30 % of reads are range
/// scans), captured on the commit before the batch-end scan merge became a
/// single lazy pass: `(workload, split threshold, event-stream digest,
/// tree digest, stats JSON)`. Constants, not regenerated — the merge's
/// answers, visit counts and match charges must reproduce them exactly.
/// (The `nodes_visited` fields were rewritten once, to `ops_advanced`,
/// when the level-wise read deferral that shared node loads was deleted.)
const SCAN_PINS: [(Workload, f64, u64, u64, &str); 6] = [
    (
        Workload::Ipgeo,
        1.0,
        0x22c9942bf32b5aaf,
        0x4a45812b5a64f43a,
        r#"{"ops":8000,"reads":3973,"writes":4027,"batches":8,"shortcut":{"hits":4332,"misses":1346,"stale_invalidations":0,"generated":2096,"updated":395,"corruptions_injected":0,"corruption_fallbacks":0,"nodes_visited":9206,"ops_advanced":9206},"lock_groups":2693,"per_op_locks":4097,"shortcut_hash_collisions":3,"shortcut_disables":0,"shard_splits":0,"shard_merges":0,"answer_digest":1861469149533436525}"#,
    ),
    (
        Workload::Ipgeo,
        0.02,
        0xd16f29983754a620,
        0x4a45812b5a64f43a,
        r#"{"ops":8000,"reads":3973,"writes":4027,"batches":8,"shortcut":{"hits":4314,"misses":1364,"stale_invalidations":0,"generated":2127,"updated":382,"corruptions_injected":0,"corruption_fallbacks":0,"nodes_visited":7898,"ops_advanced":7898},"lock_groups":2693,"per_op_locks":4097,"shortcut_hash_collisions":3,"shortcut_disables":0,"shard_splits":16,"shard_merges":0,"answer_digest":1861469149533436525}"#,
    ),
    (
        Workload::Dict,
        1.0,
        0xe45dfad8c86a7664,
        0x718650282caaa113,
        r#"{"ops":8000,"reads":3973,"writes":4027,"batches":8,"shortcut":{"hits":4332,"misses":1346,"stale_invalidations":0,"generated":2096,"updated":395,"corruptions_injected":0,"corruption_fallbacks":0,"nodes_visited":10510,"ops_advanced":10510},"lock_groups":2708,"per_op_locks":4108,"shortcut_hash_collisions":1,"shortcut_disables":0,"shard_splits":0,"shard_merges":0,"answer_digest":10548478116866425114}"#,
    ),
    (
        Workload::Dict,
        0.02,
        0x5c1418fa37680620,
        0x718650282caaa113,
        r#"{"ops":8000,"reads":3973,"writes":4027,"batches":8,"shortcut":{"hits":4320,"misses":1358,"stale_invalidations":0,"generated":2113,"updated":390,"corruptions_injected":0,"corruption_fallbacks":0,"nodes_visited":10306,"ops_advanced":10306},"lock_groups":2724,"per_op_locks":4110,"shortcut_hash_collisions":1,"shortcut_disables":0,"shard_splits":12,"shard_merges":0,"answer_digest":10548478116866425114}"#,
    ),
    (
        Workload::DenseInt,
        1.0,
        0x19d1ad6d4fbad384,
        0xebc1a56e0f6e9a8b,
        r#"{"ops":8000,"reads":3973,"writes":4027,"batches":8,"shortcut":{"hits":4332,"misses":1346,"stale_invalidations":0,"generated":2096,"updated":395,"corruptions_injected":0,"corruption_fallbacks":0,"nodes_visited":4232,"ops_advanced":4232},"lock_groups":2064,"per_op_locks":4027,"shortcut_hash_collisions":0,"shortcut_disables":0,"shard_splits":0,"shard_merges":0,"answer_digest":6626304711118392762}"#,
    ),
    (
        Workload::DenseInt,
        0.02,
        0xac47a11b4cd3dcf5,
        0xebc1a56e0f6e9a8b,
        r#"{"ops":8000,"reads":3973,"writes":4027,"batches":8,"shortcut":{"hits":4332,"misses":1346,"stale_invalidations":0,"generated":2096,"updated":395,"corruptions_injected":0,"corruption_fallbacks":0,"nodes_visited":4232,"ops_advanced":4232},"lock_groups":2445,"per_op_locks":4027,"shortcut_hash_collisions":0,"shortcut_disables":0,"shard_splits":15,"shard_merges":0,"answer_digest":6626304711118392762}"#,
    ),
];

#[test]
fn scan_heavy_stream_reproduces_its_pinned_observables() {
    for (workload, split, stream, tree, json) in SCAN_PINS {
        for (threads, steal) in SCHEDULES {
            let (_, got_stream, got_tree, _, stats) = run_cell(
                workload,
                Mix::C.with_scans(0.3),
                FaultPlan::none(),
                split,
                threads,
                steal,
            );
            let cell = format!("{workload:?} split {split} threads {threads} steal {steal}");
            assert_eq!(got_stream, stream, "{cell}: event stream");
            assert_eq!(got_tree, tree, "{cell}: final tree");
            assert_eq!(serde_json::to_string(&stats).expect("stats serialize"), json, "{cell}");
        }
    }
}
