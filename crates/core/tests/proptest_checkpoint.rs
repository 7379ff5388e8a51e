//! Property tests of the durable log's checkpoints: random op streams
//! through [`DurableLog`] under random batch caps. Every checkpoint it
//! installs must read back as exactly the modelled key set, in the bytes
//! [`write_checkpoint`] writes for the merged tree, and reopening the
//! directory must reproduce the session.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dcart::durable::CHECKPOINT_FILE;
use dcart::{
    read_checkpoint_pairs, write_checkpoint, CrashInjector, CttConsumer, DcartConfig, DurableLog,
    ExecOpts, Opened, PersistStats, TraverseMode,
};
use dcart_art::Key;
use dcart_workloads::{Op, OpKind, Workload};
use proptest::prelude::*;

struct Silent;
impl CttConsumer for Silent {}

/// Operations per batch, also the log's nominal batch size.
const BATCH: usize = 48;

/// A fresh directory per case (cases of one test run in sequence, tests in
/// parallel).
fn case_dir(test: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("dcart-checkpoint-prop").join(format!(
        "{test}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Variable-length DICT words: the loaded half and the not-yet-inserted
/// half of the key domain the op streams draw from.
fn domain() -> (Vec<Key>, Vec<Key>) {
    let set = Workload::Dict.generate(240, 11);
    (set.keys, set.insert_pool)
}

/// Sub-shards exist at this threshold: a bucket splits above 2 % of a
/// batch.
fn config() -> DcartConfig {
    DcartConfig { split_threshold: Some(0.02), ..DcartConfig::default() }
}

const OPTS: ExecOpts = ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false };

/// One op as `(kind selector, key selector, value)`; selectors are reduced
/// modulo what exists, so a stream keeps hitting the same few keys:
/// duplicates within a cycle, removes of absent keys, re-inserts.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u16, u64)>> {
    proptest::collection::vec((0u8..10, any::<u16>(), any::<u64>()), 0..600)
}

fn to_ops(raw: &[(u8, u16, u64)], keys: &[Key]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, key, value)| {
            let (kind, value) = match kind {
                0..=2 => (OpKind::Insert, value),
                3..=4 => (OpKind::Update, value),
                5..=7 => (OpKind::Remove, 0),
                8 => (OpKind::Read, 0),
                _ => (OpKind::Scan, 5),
            };
            Op { kind, key: keys[key as usize % keys.len()].clone(), value }
        })
        .collect()
}

fn apply(model: &mut BTreeMap<Key, u64>, batch: &[Op]) {
    for op in batch {
        match op.kind {
            OpKind::Insert | OpKind::Update => {
                model.insert(op.key.clone(), op.value);
            }
            OpKind::Remove => {
                model.remove(&op.key);
            }
            OpKind::Read | OpKind::Scan => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_installed_checkpoint_is_the_model_and_reopens_to_the_digest(
        raw in ops_strategy(),
        every in 1u64..6,
    ) {
        let (loaded, pool) = domain();
        let keys: Vec<Key> = loaded.iter().chain(&pool).cloned().collect();
        let pairs: Vec<(Key, u64)> = loaded.iter().cloned().zip(0u64..).collect();
        let mut model: BTreeMap<Key, u64> = pairs.iter().cloned().collect();
        let dir = case_dir("log");
        let reference_dir = case_dir("tree");
        let Opened { mut log, mut session, absorb, .. } =
            DurableLog::open(&dir, &pairs, &config(), &OPTS, BATCH).unwrap();
        prop_assert!(absorb.is_none());
        let mut crash = CrashInjector::counting();
        let mut persist = PersistStats::default();
        let (mut seq, mut installed) = (0u64, 0u64);

        for batch in to_ops(&raw, &keys).chunks(BATCH) {
            log.append(batch, &mut crash).unwrap();
            session.execute_batch(batch, &mut Silent).unwrap();
            log.commit(session.answer_digest(), batch.len() as u32, false, &mut crash).unwrap();
            apply(&mut model, batch);
            seq += 1;
            if !log.checkpoint_due(every) {
                continue;
            }
            let mut job = log.rotate(&session).unwrap();
            job.run(&mut |_: &File| Ok(()), &mut crash, &mut persist);
            log.finish(job).unwrap();
            installed = seq;
            prop_assert!(log.checkpointed());

            let ckpt = read_checkpoint_pairs(&dir).unwrap().unwrap();
            prop_assert_eq!((ckpt.next_seq, ckpt.digest), (seq, session.answer_digest()));
            prop_assert!(ckpt.pairs.iter().map(|(k, v)| (k, *v)).eq(model.iter().map(|(k, &v)| (k, v))));

            // The shard walk writes what a walk of the merged tree writes.
            let tree = session.tree().unwrap();
            write_checkpoint(
                &reference_dir, seq, session.answer_digest(), &tree, &mut crash, &mut persist,
            ).unwrap();
            let walked = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
            let reference = std::fs::read(reference_dir.join(CHECKPOINT_FILE)).unwrap();
            prop_assert!(walked == reference, "batch {}: the log's file differs", seq);
        }
        prop_assert_eq!(session.len(), model.len());
        let digest = session.answer_digest();
        drop((log, session));

        let Opened { log, session, absorb, .. } =
            DurableLog::open(&dir, &pairs, &config(), &OPTS, BATCH).unwrap();
        prop_assert!(absorb.is_none());
        prop_assert_eq!(log.persist().replayed_batches, seq - installed);
        prop_assert_eq!(session.answer_digest(), digest);
        prop_assert!(session.entries().eq(model.iter().map(|(k, &v)| (k, v))));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&reference_dir);
    }
}
