//! Property tests of the incremental checkpoint: merging a cycle's dirty
//! keys into the previous checkpoint must produce, byte for byte, the file
//! a full ordered walk of the live shards encodes — and that file must
//! read back as exactly the modelled key set.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dcart::durable::CHECKPOINT_FILE;
use dcart::{
    read_checkpoint, write_checkpoint, CheckpointKind, Checkpointer, CrashInjector, CttConsumer,
    CttSession, DcartConfig, DcartError, ExecOpts, PersistStats, TraverseMode,
};
use dcart_art::Key;
use dcart_workloads::{Op, OpKind, Workload};
use proptest::prelude::*;

struct Silent;
impl CttConsumer for Silent {}

/// A checkpoint on the calling thread: capture, run the job (no segment
/// to reset), take it back.
fn checkpoint(
    checkpointer: &mut Checkpointer,
    session: &CttSession,
    next_seq: u64,
    walk: bool,
    crash: &mut CrashInjector,
    persist: &mut PersistStats,
) -> Result<CheckpointKind, DcartError> {
    let mut job = checkpointer.capture(session, next_seq, walk)?;
    let kind = job.run(&mut std::fs::File::sync_all, crash, persist);
    checkpointer.finish(job);
    kind
}

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

fn open_session(loaded: &[Key]) -> (CttSession, BTreeMap<Key, u64>) {
    let pairs: Vec<(Key, u64)> = loaded.iter().cloned().zip(0u64..).collect();
    let opts = ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false };
    let session = CttSession::from_pairs(&pairs, &config(), &opts, 48, 0).expect("DICT keys load");
    (session, pairs.into_iter().collect())
}

/// One op as `(kind selector, key selector, value)`; selectors are reduced
/// modulo what exists, so a stream keeps hitting the same few keys:
/// duplicates within a cycle, removes of absent keys, re-inserts.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u16, u64)>> {
    proptest::collection::vec((0u8..10, any::<u16>(), any::<u64>()), 0..120)
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
    fn merged_checkpoint_is_the_full_walk_byte_for_byte(
        cycles in proptest::collection::vec(ops_strategy(), 1..6),
    ) {
        let (loaded, pool) = domain();
        let keys: Vec<Key> = loaded.iter().chain(&pool).cloned().collect();
        let (mut session, mut model) = open_session(&loaded);
        let dir = case_dir("merge");
        let reference_dir = case_dir("walk");
        let mut checkpointer = Checkpointer::new(&dir, None);
        let mut crash = CrashInjector::counting();
        let mut persist = PersistStats::default();

        // The image every merge starts from.
        let kind = checkpoint(&mut checkpointer, &session, 0, false, &mut crash, &mut persist).unwrap();
        prop_assert_eq!(kind, CheckpointKind::Walked);

        for (cycle, raw) in cycles.iter().enumerate() {
            let ops = to_ops(raw, &keys);
            for batch in ops.chunks(48) {
                checkpointer.note_writes(batch);
                session.execute_batch(batch, &mut Silent).unwrap();
                apply(&mut model, batch);
            }
            let seq = cycle as u64 + 1;
            let kind =
                checkpoint(&mut checkpointer, &session, seq, false, &mut crash, &mut persist).unwrap();
            let mut written: Vec<&Key> =
                ops.iter().filter(|op| op.kind.is_write()).map(|op| &op.key).collect();
            written.sort_unstable();
            written.dedup();
            prop_assert_eq!(kind, CheckpointKind::Merged { dirty_keys: written.len() as u64 });
            prop_assert_eq!(checkpointer.installed_seq(), Some(seq));

            // What a walk of the same state writes, through the public
            // tree + write_checkpoint pair.
            let tree = session.tree().unwrap();
            write_checkpoint(
                &reference_dir, seq, session.answer_digest(), &tree, &mut crash, &mut persist,
            ).unwrap();
            let merged = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
            let walked = std::fs::read(reference_dir.join(CHECKPOINT_FILE)).unwrap();
            prop_assert!(merged == walked, "cycle {}: merged file differs from the walk", cycle);

            let (next_seq, digest, on_disk) = read_checkpoint(&dir).unwrap().unwrap();
            prop_assert_eq!(next_seq, seq);
            prop_assert_eq!(digest, session.answer_digest());
            prop_assert_eq!(on_disk.len(), model.len());
            prop_assert_eq!(session.len(), model.len());
            prop_assert!(on_disk.iter().map(|(k, &v)| (k, v)).eq(model.iter().map(|(k, &v)| (k, v))));
            prop_assert!(session.entries().eq(model.iter().map(|(k, &v)| (k, v))));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&reference_dir);
    }
}

/// A write the checkpointer was never told about changes the key count:
/// the merged checkpoint is refused with a typed error, nothing reaches
/// the directory, and the checkpointer falls back to a walk.
#[test]
fn untracked_write_is_refused_not_installed() {
    let (loaded, pool) = domain();
    let (mut session, _) = open_session(&loaded);
    let dir = case_dir("diverged");
    let mut checkpointer = Checkpointer::new(&dir, None);
    let mut crash = CrashInjector::counting();
    let mut persist = PersistStats::default();
    checkpoint(&mut checkpointer, &session, 0, false, &mut crash, &mut persist).unwrap();
    let installed = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();

    let untracked = [Op { kind: OpKind::Insert, key: pool[0].clone(), value: 1 }];
    session.execute_batch(&untracked, &mut Silent).unwrap();
    let err =
        checkpoint(&mut checkpointer, &session, 1, false, &mut crash, &mut persist).unwrap_err();
    let live = loaded.len() as u64 + 1;
    assert!(
        matches!(err, DcartError::CheckpointDiverged { merged, live: l } if merged + 1 == live && l == live),
        "{err}"
    );
    assert_eq!(std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap(), installed);
    assert_eq!(checkpointer.installed_seq(), Some(0));
    assert_eq!(persist.checkpoints, 1);

    let kind = checkpoint(&mut checkpointer, &session, 1, false, &mut crash, &mut persist).unwrap();
    assert_eq!(kind, CheckpointKind::Walked);
    let (_, _, on_disk) = read_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(on_disk.get(&pool[0]), Some(&1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asking for the walk while an image exists walks — the drain
/// checkpoint's path — and the next checkpoint merges into that walk.
#[test]
fn forced_walk_replaces_the_image() {
    let (loaded, pool) = domain();
    let (mut session, _) = open_session(&loaded);
    let dir = case_dir("forced");
    let mut checkpointer = Checkpointer::new(&dir, None);
    let mut crash = CrashInjector::counting();
    let mut persist = PersistStats::default();
    checkpoint(&mut checkpointer, &session, 0, false, &mut crash, &mut persist).unwrap();

    let batch = [Op { kind: OpKind::Insert, key: pool[1].clone(), value: 9 }];
    checkpointer.note_writes(&batch);
    session.execute_batch(&batch, &mut Silent).unwrap();
    let kind = checkpoint(&mut checkpointer, &session, 1, true, &mut crash, &mut persist).unwrap();
    assert_eq!(kind, CheckpointKind::Walked);

    let batch = [Op { kind: OpKind::Remove, key: pool[1].clone(), value: 0 }];
    checkpointer.note_writes(&batch);
    session.execute_batch(&batch, &mut Silent).unwrap();
    let kind = checkpoint(&mut checkpointer, &session, 2, false, &mut crash, &mut persist).unwrap();
    assert_eq!(kind, CheckpointKind::Merged { dirty_keys: 1 });
    let (_, _, on_disk) = read_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(on_disk.len(), loaded.len());
    assert_eq!(on_disk.get(&pool[1]), None);
    let _ = std::fs::remove_dir_all(&dir);
}
