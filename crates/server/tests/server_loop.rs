//! Integration tests for the serving core: batch determinism against the
//! offline repro path, zero acked-write loss across an injected kill,
//! crashes inside a batch-capped checkpoint, the drain checkpoint, the default
//! cadence by log size and the replay it bounds, deadline enforcement
//! under a hand-driven clock, the `stats` answer byte for
//! byte, admissions racing a drain, group submission against
//! one-at-a-time submission, when the sleeping loop flushes, and the TCP
//! front end end to end (pipelining, slow frames, a peer that never
//! reads, drain and death with requests in flight), and the pipelined
//! durable commit behind `run()` — which sync may acknowledge which batch,
//! the bound on unsynced batches, its equivalence with the inline commit,
//! the checkpoint barrier and a sync that fails — and the checkpoint job
//! off the loop: crash sites firing on its thread, a job held while the
//! loop runs on into the other WAL segment, a failed install, a
//! single-file directory of the previous format, job and inline
//! checkpoints byte for byte — and the one on-disk protocol read both
//! ways: a killed server directory through `DurableLog::open` and
//! `run_durable`, a crashed `run_durable` directory through
//! `ServerCore::open`, held against a plain execution — all with
//! `TestClock` (or a clock that
//! ticks per reading), so no decision here depends on wall time, and
//! with the commit sync or the checkpoint's fsync behind a gate the test
//! holds, so none depends on a schedule.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use dcart::{
    CrashInjector, CttConsumer, CttSession, DcartConfig, DurabilityConfig, ExecOpts, TraverseMode,
};
use dcart_art::Key;
use dcart_engine::time::{Clock, TestClock};
use dcart_engine::{CrashPlan, CrashSite, RejectReason};
use dcart_server::wire::{Request, RequestKind, Response, Status};
use dcart_server::{Reply, ServerConfig, ServerCore, ServerShared};
use dcart_workloads::{generate_ops, KeySet, Mix, Op, OpKind, OpStreamConfig, Workload};

struct Silent;
impl CttConsumer for Silent {}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded mixed op stream as `(wire kind, key, value)` triples.
fn mixed_ops(seed: u64, n: u64) -> Vec<(RequestKind, u64, u64)> {
    (0..n)
        .map(|i| {
            let mix = splitmix64(seed ^ i) % 100;
            let key = splitmix64(seed ^ 0xbeef ^ i) % 512;
            if mix < 45 {
                (RequestKind::Insert, key, splitmix64(key ^ i))
            } else if mix < 55 {
                (RequestKind::Remove, key, 0)
            } else if mix < 65 {
                (RequestKind::Scan, key, 8)
            } else {
                (RequestKind::Get, key, 0)
            }
        })
        .collect()
}

fn to_executor_ops(triples: &[(RequestKind, u64, u64)]) -> Vec<Op> {
    triples
        .iter()
        .map(|&(kind, key, value)| {
            let kind = match kind {
                RequestKind::Insert => OpKind::Insert,
                RequestKind::Remove => OpKind::Remove,
                RequestKind::Scan => OpKind::Scan,
                _ => OpKind::Read,
            };
            Op { kind, key: Key::from_u64(key), value }
        })
        .collect()
}

fn mem_config(batch_size: usize, threads: usize, steal: bool) -> ServerConfig {
    ServerConfig { batch_size, threads, steal, data_dir: None, ..ServerConfig::default() }
}

/// Runs `triples` through the server core in watermark-exact batches and
/// returns `(answer_digest, tree_digest)`.
fn server_digests(triples: &[(RequestKind, u64, u64)], config: ServerConfig) -> (u64, u64) {
    let clock = TestClock::new();
    let batch = config.batch_size;
    let shared = ServerShared::new(config.admission, Arc::new(clock));
    let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
    let (tx, rx) = mpsc::channel();
    for chunk in triples.chunks(batch) {
        for (i, &(kind, key, value)) in chunk.iter().enumerate() {
            let req = Request { req_id: i as u64, kind, budget_ns: 1 << 40, key, value };
            assert!(shared.submit(req, &tx).is_none(), "admitted");
        }
        core.flush_now();
    }
    // Every submitted request got exactly one Ok answer.
    let mut answered = 0;
    while let Ok(resp) = rx.try_recv() {
        assert_eq!(resp.status, Status::Ok);
        answered += 1;
    }
    assert_eq!(answered, triples.len());
    let answer = core.answer_digest();
    let tree = core.into_tree_digest().expect("tree");
    (answer, tree)
}

/// Runs `triples` through the offline repro path, a `CttSession` fed
/// `batch`-sized chunks, and returns `(answer_digest, tree_digest)`.
fn repro_digests(triples: &[(RequestKind, u64, u64)], batch: usize) -> (u64, u64) {
    let ops = to_executor_ops(triples);
    let mut session = CttSession::from_pairs(
        &[],
        &DcartConfig::default(),
        &ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false },
        batch,
        0,
    )
    .expect("session");
    for chunk in ops.chunks(batch) {
        session.execute_batch(chunk, &mut Silent).expect("exec");
    }
    let answer = session.answer_digest();
    let (tree, _, _) = session.finish().expect("finish");
    (answer, dcart::tree_digest(&tree))
}

/// The tentpole invariant: the server path and the offline repro path
/// produce byte-identical digests for the same ops and batch boundaries,
/// at every thread count and with heaviest-first claiming on.
#[test]
fn server_batches_match_repro_path_digests() {
    let batch = 64;
    let triples = mixed_ops(7, 640);
    let (repro_answer, repro_tree) = repro_digests(&triples, batch);

    for (threads, steal) in [(1, false), (2, false), (4, true)] {
        let (answer, tree) = server_digests(&triples, mem_config(batch, threads, steal));
        assert_eq!(
            answer, repro_answer,
            "answer digest diverged at threads={threads} steal={steal}"
        );
        assert_eq!(tree, repro_tree, "tree digest diverged at threads={threads} steal={steal}");
    }
}

/// The chaos invariant, in-process: kill the durability layer between a
/// batch's ops record and its commit mark, restart, and every
/// acknowledged insert must still be readable — while the killed batch
/// (answered with errors, never acked) must NOT have been replayed.
#[test]
fn acked_writes_survive_injected_kill_and_restart() {
    let dir = std::env::temp_dir().join(format!("dcart_srv_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = 16usize;
    let crash_at = 5u64;
    let config = ServerConfig {
        batch_size: batch,
        data_dir: Some(dir.clone()),
        checkpoint_every: 3,
        crash: Some(CrashPlan { site: CrashSite::BeforeCommit, at: crash_at, seed: 9 }),
        ..ServerConfig::default()
    };
    let clock = TestClock::new();
    let shared = ServerShared::new(config.admission, Arc::new(clock));
    let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");

    let (tx, rx) = mpsc::channel();
    let mut acked_keys = Vec::new();
    let mut errored = 0u64;
    let total_batches = 8u64;
    for b in 0..total_batches {
        for i in 0..batch as u64 {
            let key = b * batch as u64 + i;
            let req = Request {
                req_id: key,
                kind: RequestKind::Insert,
                budget_ns: 1 << 40,
                key,
                value: key * 3 + 1,
            };
            if shared.submit(req, &tx).is_some() {
                errored += 1; // dead server answers immediately
            }
        }
        core.flush_now();
        while let Ok(resp) = rx.try_recv() {
            match resp.status {
                Status::Ok => acked_keys.push(resp.req_id),
                Status::Error => errored += 1,
                Status::Rejected => panic!("nothing should be rejected here"),
            }
        }
    }
    assert!(shared.is_dead(), "injected crash must kill the core");
    assert_eq!(acked_keys.len() as u64, crash_at * batch as u64, "acks stop at the kill");
    assert!(errored > 0, "the killed batch is answered with errors, not silence");

    // Restart on the same directory.
    let config2 =
        ServerConfig { batch_size: batch, data_dir: Some(dir.clone()), ..ServerConfig::default() };
    let clock2 = TestClock::new();
    let shared2 = ServerShared::new(config2.admission, Arc::new(clock2));
    let mut core2 = ServerCore::open(config2, Arc::clone(&shared2), &[]).expect("recover");
    let replayed = shared2.stats().core.replayed_batches;
    // Checkpoint at batch 3 absorbed the first batches; batches 3,4 are
    // committed in the WAL; batch 5 (killed before commit) must not be.
    assert_eq!(replayed, crash_at - 3, "only committed post-checkpoint batches replay");

    let (tx2, rx2) = mpsc::channel();
    for chunk in acked_keys.chunks(batch) {
        for &key in chunk {
            let req =
                Request { req_id: key, kind: RequestKind::Get, budget_ns: 1 << 40, key, value: 0 };
            assert!(shared2.submit(req, &tx2).is_none());
        }
        core2.flush_now();
    }
    let mut lost = Vec::new();
    let mut got = 0;
    while let Ok(resp) = rx2.try_recv() {
        got += 1;
        assert_eq!(resp.status, Status::Ok);
        if resp.value != Some(resp.req_id * 3 + 1) {
            lost.push(resp.req_id);
        }
    }
    assert_eq!(got, acked_keys.len());
    assert!(lost.is_empty(), "acked writes lost after recovery: {lost:?}");

    // And the killed batch really is gone: its keys read as absent.
    let killed_key = crash_at * batch as u64;
    let req = Request {
        req_id: killed_key,
        kind: RequestKind::Get,
        budget_ns: 1 << 40,
        key: killed_key,
        value: 0,
    };
    assert!(shared2.submit(req, &tx2).is_none());
    core2.flush_now();
    let resp = rx2.try_recv().expect("answered");
    assert_eq!(resp.value, None, "an unacked (killed) write must not be replayed");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An insert of `req_id + 1` under the key `req_id`.
fn insert(req_id: u64) -> Request {
    Request {
        req_id,
        kind: RequestKind::Insert,
        budget_ns: 1 << 40,
        key: req_id,
        value: req_id + 1,
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcart_srv_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, crash: Option<CrashPlan>) -> ServerConfig {
    ServerConfig {
        batch_size: 16,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: 3,
        crash,
        ..ServerConfig::default()
    }
}

/// Advances by a fixed step on every reading, so an interval between two
/// readings is visible without any wall time passing.
struct TickingClock(AtomicU64);
const TICK_NS: u64 = 1_000;

impl Clock for TickingClock {
    fn now_ns(&self) -> u64 {
        self.0.fetch_add(TICK_NS, Ordering::SeqCst)
    }
}

fn open_core(config: ServerConfig) -> (Arc<ServerShared>, ServerCore) {
    let shared = ServerShared::new(config.admission, Arc::new(TickingClock(AtomicU64::new(0))));
    let core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
    (shared, core)
}

/// Submits `triples` as 16-request batches starting at batch `first`,
/// flushing each, and folds every acknowledged write into `acked`.
/// Returns how many requests were answered with an error.
fn drive(
    shared: &Arc<ServerShared>,
    core: &mut ServerCore,
    triples: &[(RequestKind, u64, u64)],
    acked: &mut BTreeMap<u64, Option<u64>>,
) -> usize {
    let (tx, rx) = mpsc::channel();
    let mut errors = 0;
    for chunk in triples.chunks(16) {
        for (i, &(kind, key, value)) in chunk.iter().enumerate() {
            let req = Request { req_id: i as u64, kind, budget_ns: 1 << 40, key, value };
            if shared.submit(req, &tx).is_some() {
                errors += 1; // a dead core answers at once
            }
        }
        core.flush_now();
        while let Ok(resp) = rx.try_recv() {
            let (kind, key, value) = chunk[resp.req_id as usize];
            match (resp.status, kind) {
                (Status::Ok, RequestKind::Insert) => drop(acked.insert(key, Some(value))),
                (Status::Ok, RequestKind::Remove) => drop(acked.insert(key, None)),
                (Status::Ok, _) => {}
                (Status::Error, _) => errors += 1,
                (Status::Rejected, _) => panic!("nothing should be rejected here"),
            }
        }
    }
    errors
}

fn checkpoint_file(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(dcart::durable::CHECKPOINT_FILE)).expect("a checkpoint is installed")
}

/// Kill the core inside its *second* checkpoint — one the batch cap, not
/// the log size, made due — at each of the three checkpoint crash sites,
/// restart, and finish the stream. The restarted core must end with the
/// digests of a core that never crashed, hold every acknowledged write,
/// and its first checkpoint must be, byte for byte, the one the uncrashed
/// core wrote at the same sequence number.
#[test]
fn crash_inside_a_batch_capped_checkpoint_recovers_to_the_uncrashed_state() {
    let triples = mixed_ops(23, 9 * 16);

    let clean_dir = scratch_dir("capped_clean");
    let (clean_shared, mut clean) = open_core(durable_config(&clean_dir, None));
    let mut clean_acked = BTreeMap::new();
    assert_eq!(drive(&clean_shared, &mut clean, &triples, &mut clean_acked), 0);
    let stats = clean_shared.stats().core;
    assert_eq!(stats.persist.checkpoints, 3, "{stats:?}");
    // Each stall — wait, capture, rotation — and each job, which runs
    // inline here, spans exactly two readings of the injected clock.
    assert_eq!(stats.checkpoint_stall_ns_total, 3 * TICK_NS);
    assert_eq!(stats.checkpoint_stall_ns_max, TICK_NS);
    assert_eq!(
        (stats.checkpoint_job_ns_total, stats.checkpoint_job_ns_max),
        (3 * TICK_NS, TICK_NS)
    );
    let clean_file = checkpoint_file(&clean_dir);
    let clean_answer = clean.answer_digest();
    let clean_tree = clean.into_tree_digest().expect("tree");

    for site in [CrashSite::MidCheckpoint, CrashSite::BeforeSwap, CrashSite::AfterSwap] {
        let dir = scratch_dir(&format!("capped_{}", site.name()));
        let plan = CrashPlan { site, at: 1, seed: 5 };
        let (shared, mut core) = open_core(durable_config(&dir, Some(plan)));
        let mut acked = BTreeMap::new();
        // Batches 0..6: the checkpoint after batch 5 is the second one.
        let (before, after) = triples.split_at(6 * 16);
        assert_eq!(drive(&shared, &mut core, before, &mut acked), 0, "acks precede the checkpoint");
        assert!(shared.is_dead(), "{}: the planned crash kills the core", site.name());
        let stats = shared.stats().core;
        // The second install counts once its rename is durable.
        let installed = 1 + u64::from(site == CrashSite::AfterSwap);
        assert_eq!(stats.persist.checkpoints, installed, "{stats:?}");
        assert_eq!(stats.batches, 6);
        assert_eq!(drive(&shared, &mut core, &after[..16], &mut acked), 16, "dead cores refuse");
        drop(core);

        let (shared, mut core) = open_core(durable_config(&dir, None));
        let replayed = shared.stats().core.replayed_batches;
        let expected = if site == CrashSite::AfterSwap { 0 } else { 3 };
        assert_eq!(replayed, expected, "{}: WAL suffix past the live checkpoint", site.name());
        assert_eq!(drive(&shared, &mut core, after, &mut acked), 0);
        let stats = shared.stats().core;
        assert_eq!(stats.persist.checkpoints, 1, "{stats:?}");
        assert!(
            checkpoint_file(&dir) == clean_file,
            "{}: checkpoint differs from the uncrashed core's",
            site.name()
        );
        assert_eq!(core.answer_digest(), clean_answer, "{}: answers diverged", site.name());
        assert_eq!(acked, clean_acked, "{}: same acknowledged writes", site.name());

        // Acked ⊆ recovered: every key reads back as its last
        // acknowledged write left it.
        let (tx, rx) = mpsc::channel();
        let keys: Vec<u64> = acked.keys().copied().collect();
        for chunk in keys.chunks(16) {
            for &key in chunk {
                let get = Request {
                    req_id: key,
                    kind: RequestKind::Get,
                    budget_ns: 1 << 40,
                    key,
                    value: 0,
                };
                assert!(shared.submit(get, &tx).is_none());
            }
            core.flush_now();
        }
        let answers: BTreeMap<u64, Option<u64>> =
            rx.try_iter().map(|resp| (resp.req_id, resp.value)).collect();
        assert_eq!(answers, acked, "{}: acknowledged writes lost", site.name());
        assert_eq!(core.into_tree_digest().expect("tree"), clean_tree, "{}", site.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
}

/// One on-disk protocol, read both ways: a directory `run_durable` left
/// after a crash at each of the five sites — the checkpoint sites inside
/// its second checkpoint — opens in the server with every batch
/// `run_durable` committed, to the state a plain `execute_ctt` reaches
/// over those batches' ops: the same answer digest and tree.
#[test]
fn an_offline_directory_crashed_at_every_site_opens_in_the_server() {
    let keys = Workload::Ipgeo.generate(1_000, 3);
    let stream = OpStreamConfig { count: 3_000, mix: Mix::E, seed: 3, ..Default::default() };
    let ops = generate_ops(&keys, &stream);
    let pairs: Vec<(Key, u64)> =
        keys.keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let (config, opts) = (DcartConfig::default(), ExecOpts::default());
    for site in CrashSite::ALL {
        let dir = scratch_dir(&format!("offline_{}", site.name()));
        let dur = DurabilityConfig { dir: dir.clone(), checkpoint_every: 2 };
        let mut crash = CrashInjector::for_plan(CrashPlan { site, at: 1, seed: 11 });
        let out = dcart::run_durable(&keys, &ops, &config, 256, &opts, &dur, &mut crash)
            .expect("an injected crash is an outcome");
        assert_eq!(out.crashed, Some(site));

        let server = ServerConfig { data_dir: Some(dir.clone()), ..mem_config(256, 1, false) };
        let shared = ServerShared::new(server.admission, Arc::new(TestClock::new()));
        let core = ServerCore::open(server, Arc::clone(&shared), &pairs).expect("opens");
        let ckpt = dcart::read_checkpoint_pairs(&dir).expect("readable").map_or(0, |c| c.next_seq);
        let seq = ckpt + shared.stats().core.replayed_batches;
        assert!(seq > 0, "{}: something was committed", site.name());
        assert_eq!(seq, out.batches_committed, "{}: every committed batch", site.name());
        let prefix = ops.get(..seq as usize * 256).expect("no batch past the stream");
        let (tree, stats, _) =
            dcart::execute_ctt(&keys, prefix, &config, 256, &opts, &mut Silent).expect("plain");
        assert_eq!(core.answer_digest(), stats.answer_digest, "{}", site.name());
        let served = core.into_tree_digest().expect("tree");
        assert_eq!(served, dcart::tree_digest(&tree), "{}", site.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The drain checkpoint, through `run()` with drain already requested:
/// a directory without a checkpoint gets one; a core whose last batch was
/// just checkpointed writes nothing more; a core with batches past its
/// checkpoint walks once.
#[test]
fn drain_checkpoints_once_and_only_when_something_changed() {
    let dir = scratch_dir("drain");
    let drain = |core: &mut ServerCore, shared: &Arc<ServerShared>| {
        shared.request_shutdown();
        assert!(core.run().is_none(), "clean drain");
        shared.stats().core
    };

    // Fresh directory, no request ever: the audit still finds a checkpoint.
    let (shared, mut core) = open_core(durable_config(&dir, None));
    let stats = drain(&mut core, &shared);
    assert_eq!(stats.persist.checkpoints, 1);
    let empty = checkpoint_file(&dir);
    drop(core);

    // Reopened and drained again with nothing new: not rewritten.
    let (shared, mut core) = open_core(durable_config(&dir, None));
    let stats = drain(&mut core, &shared);
    assert_eq!((stats.persist.checkpoints, stats.persist.checkpoint_bytes), (0, 0));
    assert_eq!(checkpoint_file(&dir), empty);
    drop(core);

    // Three batches trip the periodic checkpoint; drain adds nothing.
    let triples = mixed_ops(31, 4 * 16);
    let (shared, mut core) = open_core(durable_config(&dir, None));
    let mut acked = BTreeMap::new();
    assert_eq!(drive(&shared, &mut core, &triples[..3 * 16], &mut acked), 0);
    let periodic = checkpoint_file(&dir);
    assert_ne!(periodic, empty);
    let stats = drain(&mut core, &shared);
    assert_eq!(stats.persist.checkpoints, 1, "{stats:?}");
    assert_eq!(checkpoint_file(&dir), periodic);
    drop(core);

    // One batch past the checkpoint: drain walks, and restart replays
    // nothing.
    let (shared, mut core) = open_core(durable_config(&dir, None));
    assert_eq!(drive(&shared, &mut core, &triples[3 * 16..], &mut acked), 0);
    let stats = drain(&mut core, &shared);
    assert_eq!(stats.persist.checkpoints, 1, "{stats:?}");
    assert_ne!(checkpoint_file(&dir), periodic);
    let answer = core.answer_digest();
    drop(core);
    let (shared, core) = open_core(durable_config(&dir, None));
    assert_eq!(shared.stats().core.replayed_batches, 0);
    assert_eq!(core.answer_digest(), answer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The default cadence through `flush_now`: no cap on batches, so the
/// log's size alone decides. Batches whose WAL segment stays below the
/// 1 MiB floor never checkpoint, the batch that crosses it checkpoints
/// once, and a kill and restart then replays exactly the batches logged
/// after that checkpoint — the replay bound.
#[test]
fn the_default_cadence_checkpoints_by_log_size_and_bounds_the_replay() {
    let dir = scratch_dir("by_bytes");
    let config = ServerConfig { data_dir: Some(dir.clone()), ..ServerConfig::default() };
    assert_eq!(config.checkpoint_every, u64::MAX);
    let batch = config.batch_size as u64;
    let (shared, mut core) = open_core(config.clone());
    let trigger = shared.stats().core.checkpoint_trigger_bytes;
    assert_eq!(trigger, 1 << 20, "no checkpoint yet: the floor");
    let (tx, rx) = mpsc::channel();
    let flush = |core: &mut ServerCore, b: u64| {
        for req_id in b * batch..(b + 1) * batch {
            assert!(shared.submit(insert(req_id), &tx).is_none());
        }
        core.flush_now();
        assert_eq!(rx.try_iter().filter(|r| r.status == Status::Ok).count() as u64, batch);
    };
    let mut b = 0;
    loop {
        let before = shared.stats().core;
        flush(&mut core, b);
        b += 1;
        let after = shared.stats().core;
        let logged = after.persist.wal_bytes - before.persist.wal_bytes;
        if after.persist.checkpoints == 1 {
            assert!(before.wal_segment_bytes < trigger, "batch {b} checkpointed late");
            assert!(before.wal_segment_bytes + logged >= trigger, "batch {b} checkpointed early");
            break;
        }
        assert_eq!(after.persist.checkpoints, 0);
        assert_eq!(after.wal_segment_bytes, before.wal_segment_bytes + logged);
        assert!(after.wal_segment_bytes < trigger, "batch {b} crossed without a checkpoint");
    }
    let checkpointed = b;
    let uncheckpointed = 5;
    for _ in 0..uncheckpointed {
        flush(&mut core, b);
        b += 1;
    }
    let stats = shared.stats().core;
    assert_eq!((stats.batches, stats.persist.checkpoints), (checkpointed + uncheckpointed, 1));
    let answer = core.answer_digest();
    drop(core); // killed: no drain, no final checkpoint

    let (shared, core) = open_core(config);
    let stats = shared.stats().core;
    assert_eq!(stats.replayed_batches, uncheckpointed, "replay covers one checkpoint's log");
    assert_eq!(core.answer_digest(), answer);
    let installed = checkpoint_file(&dir).len() as u64;
    assert_eq!(stats.checkpoint_trigger_bytes, installed.max(1 << 20));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadlines under a hand-driven clock: a request that expires while
/// queued is answered `DeadlineExceeded` at flush and never executed.
#[test]
fn queued_requests_past_deadline_are_expired_not_executed() {
    let config = mem_config(64, 1, false);
    let clock = TestClock::new();
    let shared = ServerShared::new(config.admission, Arc::new(clock.clone()));
    let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");

    let (tx, rx) = mpsc::channel();
    let insert =
        Request { req_id: 1, kind: RequestKind::Insert, budget_ns: 1_000, key: 7, value: 99 };
    assert!(shared.submit(insert, &tx).is_none(), "admitted at t=0");
    clock.advance(2_000); // past the 1 µs budget
    core.flush_now();
    let resp = rx.try_recv().expect("answered");
    assert_eq!(resp.status, Status::Rejected);
    assert_eq!(resp.reject, Some(RejectReason::DeadlineExceeded));
    assert_eq!(shared.stats().core.expired_in_queue, 1);
    assert_eq!(shared.stats().core.ops, 0, "expired request never reached the executor");

    // The same key is still absent: the expired insert did not run.
    let get = Request { req_id: 2, kind: RequestKind::Get, budget_ns: 1 << 40, key: 7, value: 0 };
    assert!(shared.submit(get, &tx).is_none());
    core.flush_now();
    let resp = rx.try_recv().expect("answered");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.value, None);

    // Once draining, a new request gets an immediate typed answer.
    let after_drain = Request { req_id: 3, kind: RequestKind::Get, budget_ns: 0, key: 7, value: 0 };
    shared.request_shutdown();
    let resp = shared.submit(after_drain, &tx).expect("immediate");
    assert_eq!(resp.reject, Some(RejectReason::Draining));
    assert_eq!(shared.stats().admission.draining, 1);
}

/// The stats wire request answers immediately (no core round-trip) with
/// well-formed JSON reflecting the counters.
#[test]
fn stats_request_answers_immediately_with_json() {
    let config = mem_config(4, 1, false);
    let clock = TestClock::new();
    let shared = ServerShared::new(config.admission, Arc::new(clock));
    let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");

    let (tx, rx) = mpsc::channel();
    for i in 0..4u64 {
        let req =
            Request { req_id: i, kind: RequestKind::Insert, budget_ns: 1 << 40, key: i, value: i };
        assert!(shared.submit(req, &tx).is_none());
    }
    core.flush_now();
    while rx.try_recv().is_ok() {}

    let stats_req =
        Request { req_id: 99, kind: RequestKind::Stats, budget_ns: 0, key: 0, value: 0 };
    let resp = shared.submit(stats_req, &tx).expect("stats answers immediately");
    assert_eq!(resp.status, Status::Ok);
    let text = String::from_utf8(resp.payload).expect("utf8");
    assert!(text.contains("\"accepted\":4"), "{text}");
    assert!(text.contains("\"acked_writes\":4"), "{text}");
    assert!(text.contains("\"queue_depth\":0"), "{text}");
}

/// End-to-end over a real socket: a mixed stream goes through the TCP
/// front end, coalesces in the core, and comes back acknowledged, and
/// shutdown drains. Where the batches fall depends on the socket's
/// timing, so only what does not is checked: every get, insert and remove
/// answers what a `BTreeMap` answers in submission order, and the tree is
/// the offline repro path's. A scan is resolved at the end of its batch,
/// so its answer, and the answer digest that folds it, depend on where the
/// batches fall: the digest is pinned against the offline path where
/// groups or `flush_now` fix them.
#[test]
fn tcp_end_to_end_roundtrip() {
    use dcart_server::wire::{decode_response, encode_request, read_frame, write_frame};
    use std::net::TcpStream;

    let batch = 16usize;
    let triples = mixed_ops(11, 8 * batch as u64);
    let config = ServerConfig { batch_size: batch, ..ServerConfig::default() };
    let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
    let handle = dcart_server::serve(config, "127.0.0.1:0", clock).expect("serve");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    // A request the loop never takes fails the test instead of hanging it.
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    for (i, &(kind, key, value)) in triples.iter().enumerate() {
        let req = Request { req_id: i as u64, kind, budget_ns: 1 << 40, key, value };
        write_frame(&mut stream, &encode_request(&req)).expect("send");
    }
    let mut answers = BTreeMap::new();
    while answers.len() < triples.len() {
        let body = read_frame(&mut stream).expect("frame").expect("open");
        let resp = decode_response(&body).expect("decode");
        assert_eq!(resp.status, Status::Ok);
        assert!(answers.insert(resp.req_id, resp.value).is_none(), "answered twice");
    }

    let mut model = BTreeMap::new();
    for (i, &(kind, key, value)) in triples.iter().enumerate() {
        let expected = match kind {
            RequestKind::Insert => model.insert(key, value),
            RequestKind::Remove => model.remove(&key),
            RequestKind::Get => model.get(&key).copied(),
            _ => continue,
        };
        assert_eq!(answers[&(i as u64)], expected, "request {i}: {kind:?} of key {key}");
    }
    // The server's half of the accounting identity. Every counter read
    // here is published before the answers it counts leave, so with every
    // answer in, the reads do not race the loop.
    let stats = handle.shared().stats();
    let (adm, core) = (stats.admission, stats.core);
    let writes = triples.iter().filter(|&&(kind, _, _)| kind.is_write()).count() as u64;
    assert_eq!(adm.accepted, triples.len() as u64, "{adm:?}");
    assert_eq!(core.ops + core.expired_in_queue, adm.accepted, "{core:?}");
    assert_eq!(core.acked_writes, writes, "{core:?}");
    let rejected =
        [adm.overloaded, adm.deadline_exceeded, adm.shed_scans, adm.shed_reads, adm.draining];
    assert_eq!(rejected, [0; 5], "{adm:?}");
    let report = handle.shutdown_and_join().expect("drain");
    assert_eq!(
        report.tree_digest,
        repro_digests(&triples, batch).1,
        "socket path's tree diverged from the offline repro path's"
    );
}

/// One run of `group_vs_single`: the stream goes in `rounds` of requests,
/// each round submitted whole — one request at a time, or in groups of
/// `group_sizes` (cycled) — and then flushed until the inbox is empty.
#[derive(Debug, PartialEq)]
struct Driven {
    batches: u64,
    answer_digest: u64,
    tree_digest: u64,
    /// `AdmissionCounters`, by its `Debug` form.
    admission: String,
    /// Every immediate answer, in order.
    immediate: Vec<Response>,
    acked: usize,
}

fn drive_rounds(
    triples: &[(RequestKind, u64, u64)],
    round: usize,
    queue_capacity: u64,
    group_sizes: Option<&[usize]>,
) -> Driven {
    let mut config = mem_config(128, 1, false);
    config.admission.queue_capacity = queue_capacity;
    let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
    let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
    let (tx, rx) = mpsc::channel();
    let mut immediate = Vec::new();
    let mut next_size = 0;
    for (r, chunk) in triples.chunks(round).enumerate() {
        let reqs: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(i, &(kind, key, value))| Request {
                req_id: (r * round + i) as u64,
                kind,
                budget_ns: 1 << 40,
                key,
                value,
            })
            .collect();
        match group_sizes {
            None => {
                for req in &reqs {
                    immediate.extend(shared.submit(*req, &tx));
                }
            }
            Some(sizes) => {
                let mut rest = reqs.as_slice();
                while !rest.is_empty() {
                    let n = sizes[next_size % sizes.len()].min(rest.len());
                    next_size += 1;
                    let (group, tail) = rest.split_at(n);
                    shared.submit_group(group, || Reply::Channel(tx.clone()), &mut immediate);
                    rest = tail;
                }
            }
        }
        while shared.stats().queue_depth > 0 {
            core.flush_now();
        }
    }
    let stats = shared.stats();
    let acked = rx.try_iter().filter(|resp| resp.status == Status::Ok).count();
    Driven {
        batches: stats.core.batches,
        answer_digest: core.answer_digest(),
        tree_digest: core.into_tree_digest().expect("tree"),
        admission: format!("{:?}", stats.admission),
        immediate,
        acked,
    }
}

/// Group submission is one-at-a-time submission: the same 1 024-op stream
/// gives the same batches, answers and tree whichever way it is handed
/// over, and the same admission decisions — reasons, retry hints, counters
/// — when a queue smaller than a round forces rejections in mid-group.
#[test]
fn group_submission_decides_and_batches_like_single_submission() {
    let triples = mixed_ops(11, 1_024);
    // Seeded group sizes between one request and more than a batch.
    let sizes: Vec<usize> = (0..37u64).map(|i| 1 + (splitmix64(i ^ 0x51) % 200) as usize).collect();

    let single = drive_rounds(&triples, 1_024, 4_096, None);
    let grouped = drive_rounds(&triples, 1_024, 4_096, Some(&sizes));
    assert_eq!(single.batches, 8, "1 024 ops at a watermark of 128");
    assert_eq!(single.acked, 1_024);
    assert!(single.immediate.is_empty());
    assert_eq!(
        (single.answer_digest, single.tree_digest),
        server_digests(&triples, mem_config(128, 1, false)),
        "and both are the watermark-exact run"
    );
    assert_eq!(single, grouped);

    // 100 slots against rounds of 150: as each round fills the queue,
    // scans are shed from half full on, reads from three quarters, and
    // what is left bounces off the full queue.
    let single = drive_rounds(&triples, 150, 100, None);
    let grouped = drive_rounds(&triples, 150, 100, Some(&sizes));
    let reasons = |d: &Driven| -> Vec<RejectReason> {
        let mut seen: Vec<RejectReason> = d.immediate.iter().filter_map(|r| r.reject).collect();
        seen.dedup();
        seen
    };
    assert!(reasons(&single).contains(&RejectReason::Overloaded), "{}", single.admission);
    assert!(reasons(&single).contains(&RejectReason::ShedScan), "{}", single.admission);
    assert_eq!(single.acked + single.immediate.len(), 1_024);
    assert_eq!(single, grouped, "same decisions in the same order, same batches");
}

/// Shedding ends with the overload. A flood of inserts, reads and scans
/// against 16 slots bounces hundreds of requests — scans and reads shed on
/// the way up, then everything off the full queue — and once the loop has
/// drained the inbox, a read and a scan are admitted and answered again.
#[test]
fn once_an_overload_has_drained_reads_and_scans_are_answered_again() {
    let mut config = mem_config(4, 1, false);
    config.admission.queue_capacity = 16;
    let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
    let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
    let (tx, rx) = mpsc::channel();
    let kinds = [RequestKind::Insert, RequestKind::Get, RequestKind::Scan];
    let mut rejected = 0;
    for i in 0..600u64 {
        let req = Request { kind: kinds[i as usize % 3], value: 4, ..insert(i) };
        rejected += u64::from(shared.submit(req, &tx).is_some());
    }
    let adm = shared.stats().admission;
    assert!(rejected >= 200, "{adm:?}");
    assert!(adm.overloaded > 0 && adm.shed_scans > 0 && adm.shed_reads > 0, "{adm:?}");

    while shared.stats().queue_depth > 0 {
        core.flush_now();
    }
    let answered = rx.try_iter().count() as u64;
    assert_eq!(answered + rejected, 600, "every admitted request answered once");
    let get = Request { req_id: 1_000, kind: RequestKind::Get, key: 0, ..insert(0) };
    let scan = Request { req_id: 1_001, kind: RequestKind::Scan, key: 0, value: 4, ..insert(0) };
    for req in [get, scan] {
        assert_eq!(shared.submit(req, &tx), None, "{:?} admitted after the overload", req.kind);
    }
    core.flush_now();
    let answers: Vec<Response> = rx.try_iter().collect();
    assert_eq!(
        answers.iter().map(|r| (r.req_id, r.status)).collect::<Vec<_>>(),
        [(1_000, Status::Ok), (1_001, Status::Ok)]
    );
    assert_eq!(answers[0].value, Some(4), "the flood's first insert was admitted and ran");
}

/// Runs the core loop on a thread of its own until drain.
fn spawn_core(mut core: ServerCore) -> std::thread::JoinHandle<ServerCore> {
    std::thread::spawn(move || {
        assert!(core.run().is_none(), "clean drain");
        core
    })
}

/// Longer than the loop ever sleeps without looking at the clock again.
const TWO_POLLS: std::time::Duration = std::time::Duration::from_millis(60);
const SOON: std::time::Duration = std::time::Duration::from_secs(10);

/// A batch is what queued while the last one ran: the loop takes one
/// request below the watermark as soon as it is free, on a clock that
/// never moves — nothing waits for time to pass to fill a batch.
#[test]
fn a_lone_request_is_answered_while_the_clock_stands_still() {
    let config = mem_config(64, 1, false);
    let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
    let core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
    let running = spawn_core(core);

    let (tx, rx) = mpsc::channel();
    assert!(shared.submit(insert(1), &tx).is_none());
    let resp = rx.recv_timeout(SOON).expect("answered without the clock moving");
    assert_eq!((resp.req_id, resp.status), (1, Status::Ok));

    shared.request_shutdown();
    running.join().expect("core thread");
    let stats = shared.stats().core;
    assert_eq!((stats.batches, stats.ops), (1, 1));
}

/// Under load batches grow by themselves, up to the watermark: one group
/// of 200 appended while the loop sleeps is taken as 64, 64, 64 and 8.
#[test]
fn a_backlog_is_taken_in_watermark_sized_batches() {
    let config = mem_config(64, 1, false);
    let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
    let core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
    let running = spawn_core(core);

    let (tx, rx) = mpsc::channel();
    let reqs: Vec<Request> = (0..200).map(insert).collect();
    let mut immediate = Vec::new();
    shared.submit_group(&reqs, || Reply::Channel(tx.clone()), &mut immediate);
    assert!(immediate.is_empty(), "{immediate:?}");
    let ids: Vec<u64> = (0..200).map(|_| rx.recv_timeout(SOON).expect("answered").req_id).collect();
    assert_eq!(ids, (0..200).collect::<Vec<u64>>(), "answered in arrival order");

    shared.request_shutdown();
    running.join().expect("core thread");
    let stats = shared.stats().core;
    assert_eq!((stats.batches, stats.ops), (4, 200));
}

/// The `stats` answer, byte for byte, after each step of a durable
/// `flush_now` run on a clock that ticks per reading: the open, a batch, a
/// batch that trips the first checkpoint, a batch with one request that
/// expires in the queue, and a batch that trips the second checkpoint. Every counter is pinned where its one writer — the
/// loop, the acknowledging path, the checkpoint job — leaves it, and so
/// are the WAL gauges: the segment's bytes, back to its 16-byte header
/// after each rotation, and the 1 MiB trigger these small checkpoints
/// never raise.
#[test]
fn stats_json_is_pinned_through_a_durable_flush_now_run() {
    let dir = scratch_dir("stats_pin");
    let config = ServerConfig { batch_size: 4, checkpoint_every: 2, ..durable_config(&dir, None) };
    let (shared, mut core) = open_core(config);
    let json = |shared: &ServerShared| String::from_utf8(shared.stats().to_json()).expect("utf8");
    let (tx, rx) = mpsc::channel();
    assert_eq!(json(&shared), PINNED_STATS[0], "after the open");
    for b in 0..4u64 {
        for req_id in 4 * b..4 * b + 4 {
            // One request of the third batch has a budget of a nanosecond.
            let budget_ns = if req_id == 11 { 1 } else { 1 << 40 };
            assert!(shared.submit(Request { budget_ns, ..insert(req_id) }, &tx).is_none());
        }
        core.flush_now();
        assert_eq!(json(&shared), PINNED_STATS[b as usize + 1], "after batch {b}");
    }
    assert_eq!(rx.try_iter().count(), 16, "every request answered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What `stats_json_is_pinned_through_a_durable_flush_now_run` reads.
const PINNED_STATS: [&str; 5] = [
    r#"{"admission":{"accepted":0,"overloaded":0,"deadline_exceeded":0,"shed_scans":0,"shed_reads":0,"draining":0},"queue_depth":0,"queue_capacity":1024,"draining":false,"core":{"batches":0,"ops":0,"acked_writes":0,"answer_digest":0,"expired_in_queue":0,"replayed_batches":0,"persist":{"wal_bytes":0,"wal_batches":0,"wal_commits":0,"payload_bytes":0,"checkpoint_bytes":0,"checkpoints":0,"torn_bytes_truncated":0,"replayed_batches":0},"checkpoint_stall_ns_total":0,"checkpoint_stall_ns_max":0,"checkpoint_job_ns_total":0,"checkpoint_job_ns_max":0,"commit_syncs":0,"commit_sync_ns_total":0,"commit_sync_ns_max":0,"wal_segment_bytes":16,"checkpoint_trigger_bytes":1048576}}"#,
    r#"{"admission":{"accepted":4,"overloaded":0,"deadline_exceeded":0,"shed_scans":0,"shed_reads":0,"draining":0},"queue_depth":0,"queue_capacity":1024,"draining":false,"core":{"batches":1,"ops":4,"acked_writes":4,"answer_digest":1714166583970945052,"expired_in_queue":0,"replayed_batches":0,"persist":{"wal_bytes":134,"wal_batches":1,"wal_commits":1,"payload_bytes":80,"checkpoint_bytes":0,"checkpoints":0,"torn_bytes_truncated":0,"replayed_batches":0},"checkpoint_stall_ns_total":0,"checkpoint_stall_ns_max":0,"checkpoint_job_ns_total":0,"checkpoint_job_ns_max":0,"commit_syncs":1,"commit_sync_ns_total":1000,"commit_sync_ns_max":1000,"wal_segment_bytes":150,"checkpoint_trigger_bytes":1048576}}"#,
    r#"{"admission":{"accepted":8,"overloaded":0,"deadline_exceeded":0,"shed_scans":0,"shed_reads":0,"draining":0},"queue_depth":0,"queue_capacity":1024,"draining":false,"core":{"batches":2,"ops":8,"acked_writes":8,"answer_digest":6156017614655345976,"expired_in_queue":0,"replayed_batches":0,"persist":{"wal_bytes":268,"wal_batches":2,"wal_commits":2,"payload_bytes":160,"checkpoint_bytes":212,"checkpoints":1,"torn_bytes_truncated":0,"replayed_batches":0},"checkpoint_stall_ns_total":1000,"checkpoint_stall_ns_max":1000,"checkpoint_job_ns_total":1000,"checkpoint_job_ns_max":1000,"commit_syncs":2,"commit_sync_ns_total":2000,"commit_sync_ns_max":1000,"wal_segment_bytes":16,"checkpoint_trigger_bytes":1048576}}"#,
    r#"{"admission":{"accepted":12,"overloaded":0,"deadline_exceeded":1,"shed_scans":0,"shed_reads":0,"draining":0},"queue_depth":0,"queue_capacity":1024,"draining":false,"core":{"batches":3,"ops":11,"acked_writes":11,"answer_digest":5874708055566606147,"expired_in_queue":1,"replayed_batches":0,"persist":{"wal_bytes":383,"wal_batches":3,"wal_commits":3,"payload_bytes":221,"checkpoint_bytes":212,"checkpoints":1,"torn_bytes_truncated":0,"replayed_batches":0},"checkpoint_stall_ns_total":1000,"checkpoint_stall_ns_max":1000,"checkpoint_job_ns_total":1000,"checkpoint_job_ns_max":1000,"commit_syncs":3,"commit_sync_ns_total":3000,"commit_sync_ns_max":1000,"wal_segment_bytes":131,"checkpoint_trigger_bytes":1048576}}"#,
    r#"{"admission":{"accepted":16,"overloaded":0,"deadline_exceeded":1,"shed_scans":0,"shed_reads":0,"draining":0},"queue_depth":0,"queue_capacity":1024,"draining":false,"core":{"batches":4,"ops":15,"acked_writes":15,"answer_digest":3434730550872577615,"expired_in_queue":1,"replayed_batches":0,"persist":{"wal_bytes":517,"wal_batches":4,"wal_commits":4,"payload_bytes":301,"checkpoint_bytes":550,"checkpoints":2,"torn_bytes_truncated":0,"replayed_batches":0},"checkpoint_stall_ns_total":2000,"checkpoint_stall_ns_max":1000,"checkpoint_job_ns_total":2000,"checkpoint_job_ns_max":1000,"commit_syncs":4,"commit_sync_ns_total":4000,"commit_sync_ns_max":1000,"wal_segment_bytes":16,"checkpoint_trigger_bytes":1048576}}"#,
];

/// Submitters race a drain while `run()` runs: every request `submit`
/// admitted — it returned `None` — is answered exactly once, wherever the
/// drain lands between a submitter's admission and its append to the
/// inbox. Each round lets the submitters run a little longer first.
#[test]
fn every_request_admitted_while_a_drain_races_in_is_answered_once() {
    for round in 0..200u64 {
        let config = mem_config(8, 1, false);
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();
        let admitted: u64 = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..2u64)
                .map(|t| {
                    let (shared, tx) = (&shared, tx.clone());
                    scope.spawn(move || {
                        let mut admitted = 0;
                        for i in 0.. {
                            let req = Request { req_id: t << 32 | i, ..insert(i % 512) };
                            match shared.submit(req, &tx) {
                                None => admitted += 1,
                                Some(r) if r.reject == Some(RejectReason::Draining) => break,
                                Some(_) => {}
                            }
                        }
                        admitted
                    })
                })
                .collect();
            for _ in 0..round % 13 {
                std::thread::yield_now();
            }
            shared.request_shutdown();
            submitters.into_iter().map(|s| s.join().expect("submitter")).sum()
        });
        running.join().expect("core thread");
        let ids: Vec<u64> = rx.try_iter().map(|r| r.req_id).collect();
        let distinct: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "round {round}: a request answered twice");
        assert_eq!(ids.len() as u64, admitted, "round {round}: an admitted request stranded");
    }
}

mod pipelined {
    //! The pipelined durable commit: `run()` on a durable core, with the
    //! committer's fsync replaced by one the test holds, releases, or fails
    //! — and `flush_now`, which runs the same round on its own thread.

    use std::sync::{Condvar, Mutex};

    use dcart::durable::WAL_FILE;
    use dcart::{DurableLog, Opened};
    use dcart_server::FileSync;

    use super::*;

    /// A commit sync behind a gate: every call reports itself, then waits
    /// for a permit. So a test knows which sync the committer is in, and
    /// decides what the loop gets to do before that sync returns.
    #[derive(Default)]
    struct SyncGate {
        state: Mutex<GateState>,
        changed: Condvar,
    }

    #[derive(Default)]
    struct GateState {
        entered: u64,
        permits: u64,
        /// Every call returns at once from here on.
        open: bool,
        /// This call (1-based), once let through, fails.
        fail_at: Option<u64>,
        /// The synced file's length when the last successful sync *began*:
        /// what a disk that keeps nothing it was not told to would hold.
        synced_len: u64,
    }

    impl SyncGate {
        fn failing_at(call: u64) -> Arc<Self> {
            let gate = Arc::new(SyncGate::default());
            gate.state.lock().expect("gate").fail_at = Some(call);
            gate
        }

        /// The sync to put into a core.
        fn sync_fn(self: &Arc<Self>) -> FileSync {
            let gate = Arc::clone(self);
            Box::new(move |file| {
                let len = file.metadata()?.len();
                let mut state = gate.state.lock().expect("gate");
                state.entered += 1;
                let call = state.entered;
                gate.changed.notify_all();
                while !state.open && state.permits == 0 {
                    state = gate.changed.wait(state).expect("gate");
                }
                state.permits = state.permits.saturating_sub(1);
                if state.fail_at == Some(call) {
                    return Err(std::io::Error::other("injected fsync failure"));
                }
                state.synced_len = len;
                Ok(())
            })
        }

        /// Blocks until the committer is inside its `n`-th sync (or past it).
        fn wait_entered(&self, n: u64) {
            let mut state = self.state.lock().expect("gate");
            while state.entered < n {
                let (guard, timeout) = self.changed.wait_timeout(state, SOON).expect("gate");
                assert!(!timeout.timed_out(), "sync {n} never began");
                state = guard;
            }
        }

        /// Lets one held (or future) sync return.
        fn permit(&self) {
            self.state.lock().expect("gate").permits += 1;
            self.changed.notify_all();
        }

        fn open(&self) {
            self.state.lock().expect("gate").open = true;
            self.changed.notify_all();
        }

        fn calls(&self) -> u64 {
            self.state.lock().expect("gate").entered
        }
    }

    /// A durable core with `slots` queue slots and a watermark of 4 — one
    /// `submit_batch` group is one batch — that never checkpoints before
    /// drain, and syncs through `gate`.
    fn gated_core(dir: &Path, gate: &Arc<SyncGate>, slots: u64) -> (Arc<ServerShared>, ServerCore) {
        let mut config =
            ServerConfig { batch_size: 4, checkpoint_every: u64::MAX, ..durable_config(dir, None) };
        config.admission.queue_capacity = slots;
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        core.set_commit_sync(gate.sync_fn());
        (shared, core)
    }

    /// Submits batch `b` (of 4 inserts, `req_id`s `4b .. 4b + 4`) whole:
    /// appended under one hold of the inbox lock, so at a watermark of 4
    /// the loop takes it as one batch, never split or joined to another.
    fn submit_batch(shared: &ServerShared, tx: &mpsc::Sender<Response>, b: u64) {
        let reqs: Vec<Request> = (4 * b..4 * b + 4).map(insert).collect();
        let mut immediate = Vec::new();
        shared.submit_group(&reqs, || Reply::Channel(tx.clone()), &mut immediate);
        assert!(immediate.is_empty(), "{immediate:?}");
    }

    /// Waits for something another thread is on its way to doing.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let started = std::time::Instant::now();
        while !done() {
            assert!(started.elapsed() < SOON, "never happened: {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    fn recv_n(rx: &mpsc::Receiver<Response>, n: usize) -> Vec<(u64, Status)> {
        (0..n)
            .map(|_| rx.recv_timeout(SOON).expect("answered"))
            .map(|r| (r.req_id, r.status))
            .collect()
    }

    fn all(ids: std::ops::Range<u64>, status: Status) -> Vec<(u64, Status)> {
        ids.map(|id| (id, status)).collect()
    }

    /// The release rule. With sync 1 held, three batches go through the
    /// loop and nobody is answered; sync 1 answers batch 1 only — batches
    /// 2 and 3 had their marks written while it ran — and sync 2, which
    /// began after both, answers them together.
    #[test]
    fn a_batch_is_answered_only_by_a_sync_that_began_after_its_mark() {
        let dir = scratch_dir("pipe_release");
        let gate = Arc::new(SyncGate::default());
        let (shared, core) = gated_core(&dir, &gate, 1_024);
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();

        submit_batch(&shared, &tx, 0);
        gate.wait_entered(1);
        submit_batch(&shared, &tx, 1);
        submit_batch(&shared, &tx, 2);
        wait_until("three batches marked", || shared.stats().core.batches == 3);
        let stats = shared.stats().core;
        assert_eq!((stats.persist.wal_commits, stats.ops), (3, 12), "the loop ran ahead");
        assert_eq!((stats.acked_writes, stats.commit_syncs), (0, 0), "{stats:?}");
        assert!(rx.try_recv().is_err(), "answered under a sync that has not returned");

        gate.permit();
        assert_eq!(recv_n(&rx, 4), all(0..4, Status::Ok), "sync 1 covers batch 1");
        gate.wait_entered(2);
        // The committer is inside sync 2 and only it answers: whatever
        // sync 1 released is in the channel by now.
        assert!(rx.try_recv().is_err(), "sync 1 began before the marks of batches 2 and 3");
        let stats = shared.stats().core;
        assert_eq!((stats.acked_writes, stats.commit_syncs), (4, 1), "{stats:?}");

        gate.permit();
        assert_eq!(recv_n(&rx, 8), all(4..12, Status::Ok), "sync 2 covers both, in order");
        let stats = shared.stats().core;
        assert_eq!((stats.acked_writes, stats.commit_syncs, stats.batches), (12, 2, 3));
        assert_eq!(gate.calls(), 2, "one sync for two batches");

        gate.open();
        shared.request_shutdown();
        running.join().expect("core thread");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The bound. With the sync held, one batch is with the committer and
    /// eight more queue behind it; the tenth is executed and then waits to
    /// be handed over, the loop stops taking from the inbox, the inbox
    /// fills, and admission says `Overloaded` — a slow disk is felt where a
    /// slow inline fsync is. Released, every admitted request is answered
    /// once.
    #[test]
    fn a_held_sync_stops_the_loop_at_the_bound_and_backs_up_into_admission() {
        let dir = scratch_dir("pipe_bound");
        let gate = Arc::new(SyncGate::default());
        let (shared, core) = gated_core(&dir, &gate, 8);
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();

        submit_batch(&shared, &tx, 0);
        gate.wait_entered(1);
        // 1 in the held sync + MAX_UNSYNCED_BATCHES (8) queued = 9 handed
        // over; the tenth is executed and counted, and gets no further.
        for b in 1..10 {
            submit_batch(&shared, &tx, b);
            wait_until("the loop took the batch", || shared.stats().queue_depth == 0);
        }
        wait_until("ten batches counted", || shared.stats().core.batches == 10);
        // Two more batches fill the queue's eight slots, and stay.
        submit_batch(&shared, &tx, 10);
        submit_batch(&shared, &tx, 11);
        let refused = shared.submit(insert(48), &tx).expect("no slot left");
        assert_eq!(refused.reject, Some(RejectReason::Overloaded));
        let stats = shared.stats();
        assert_eq!((stats.core.batches, stats.queue_depth), (10, 8), "the loop stands still");
        assert!(rx.try_recv().is_err(), "nothing is answered while the sync is held");

        gate.open();
        let mut answered = recv_n(&rx, 48);
        answered.sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(answered, all(0..48, Status::Ok), "every admitted request, once");
        shared.request_shutdown();
        running.join().expect("core thread");
        assert!(rx.try_recv().is_err(), "and no answer twice");
        let stats = shared.stats().core;
        assert_eq!((stats.batches, stats.acked_writes), (12, 48));
        assert!(stats.commit_syncs >= 2 && stats.commit_syncs <= 12, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch is counted before it can be answered. The loop hands a
    /// batch to the committer only after publishing it, so the commit
    /// sync, the last step before the batch's answers leave, finds every
    /// batch it covers in `stats` already. Batches go one at a time, each
    /// answered before the next is submitted, so sync `k` covers batch `k`
    /// and nothing else.
    #[test]
    fn every_batch_a_commit_sync_covers_is_already_counted() {
        const BATCHES: u64 = 200;
        let dir = scratch_dir("pipe_counted");
        let config = ServerConfig {
            batch_size: 4,
            checkpoint_every: u64::MAX,
            ..durable_config(&dir, None)
        };
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        // `(sync, batches counted when it began)` for every sync that
        // found its batch uncounted.
        let early = Arc::new(Mutex::new(Vec::new()));
        let mut syncs = 0u64;
        let (seen, sync_shared) = (Arc::clone(&early), Arc::clone(&shared));
        core.set_commit_sync(Box::new(move |_| {
            syncs += 1;
            let counted = sync_shared.stats().core.batches;
            if counted != syncs {
                seen.lock().expect("early").push((syncs, counted));
            }
            Ok(())
        }));
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();

        batches_answered(&shared, &tx, &rx, 0..BATCHES);
        shared.request_shutdown();
        running.join().expect("core thread");
        let stats = shared.stats().core;
        assert_eq!((stats.batches, stats.commit_syncs), (BATCHES, BATCHES), "{stats:?}");
        assert_eq!(*early.lock().expect("early"), [], "syncs that found their batch uncounted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What one way of driving a stream through a durable core leaves.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        answers: BTreeMap<u64, (Status, Option<u64>)>,
        answer_digest: u64,
        tree_digest: u64,
        /// The log before the drain checkpoint truncates it.
        wal: Vec<u8>,
    }

    fn stream_config(dir: &Path, checkpoint_every: u64) -> ServerConfig {
        let mut config = ServerConfig { checkpoint_every, ..durable_config(dir, None) };
        // `through_run` hands the whole stream over in one group, which the
        // loop takes in watermark-sized batches: keep it below the depth
        // at which scans are shed.
        config.admission.queue_capacity = 4_096;
        config
    }

    fn requests(triples: &[(RequestKind, u64, u64)]) -> Vec<Request> {
        triples
            .iter()
            .enumerate()
            .map(|(i, &(kind, key, value))| Request {
                req_id: i as u64,
                kind,
                budget_ns: 1 << 40,
                key,
                value,
            })
            .collect()
    }

    /// `triples` in watermark-exact batches of 16 through `run()`: the
    /// pipelined commit, with the production sync.
    fn through_run(dir: &Path, triples: &[(RequestKind, u64, u64)], every: u64) -> Outcome {
        let config = stream_config(dir, every);
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();
        let mut immediate = Vec::new();
        shared.submit_group(&requests(triples), || Reply::Channel(tx.clone()), &mut immediate);
        assert!(immediate.is_empty(), "{immediate:?}");
        let answers = (0..triples.len())
            .map(|_| rx.recv_timeout(SOON).expect("answered"))
            .map(|r| (r.req_id, (r.status, r.value)))
            .collect();
        // Every batch is answered, so the committer is idle and the loop
        // asleep: the log is whole and still.
        let wal = std::fs::read(dir.join(WAL_FILE)).expect("WAL");
        shared.request_shutdown();
        let core = running.join().expect("core thread");
        let stats = shared.stats().core;
        let batches = triples.len().div_ceil(16) as u64;
        assert_eq!(stats.batches, batches);
        assert!(stats.commit_syncs >= 1 && stats.commit_syncs <= batches, "{stats:?}");
        Outcome {
            answers,
            answer_digest: core.answer_digest(),
            tree_digest: core.into_tree_digest().expect("tree"),
            wal,
        }
    }

    /// The same through `flush_now`: the inline commit.
    fn through_flush_now(dir: &Path, triples: &[(RequestKind, u64, u64)], every: u64) -> Outcome {
        let config = stream_config(dir, every);
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        let (tx, rx) = mpsc::channel();
        for chunk in requests(triples).chunks(16) {
            let mut immediate = Vec::new();
            shared.submit_group(chunk, || Reply::Channel(tx.clone()), &mut immediate);
            assert!(immediate.is_empty(), "{immediate:?}");
            core.flush_now();
        }
        let answers = rx.try_iter().map(|r| (r.req_id, (r.status, r.value))).collect();
        let stats = shared.stats().core;
        assert_eq!(stats.commit_syncs, stats.batches, "inline: one sync per batch");
        Outcome {
            answers,
            wal: std::fs::read(dir.join(WAL_FILE)).expect("WAL"),
            answer_digest: core.answer_digest(),
            tree_digest: core.into_tree_digest().expect("tree"),
        }
    }

    /// Pipelined and inline commit are one protocol: the same stream gives
    /// the same answer per `req_id`, the same digests and a byte-identical
    /// log, whichever thread issues the fsync.
    #[test]
    fn pipelined_and_inline_commit_give_the_same_answers_digests_and_wal_bytes() {
        let triples = mixed_ops(41, 20 * 16);
        let (run_dir, flush_dir) = (scratch_dir("pipe_diff_run"), scratch_dir("pipe_diff_flush"));
        let pipelined = through_run(&run_dir, &triples, u64::MAX);
        let inline = through_flush_now(&flush_dir, &triples, u64::MAX);
        assert_eq!(pipelined.answers.len(), triples.len());
        assert!(pipelined.answers.values().all(|(status, _)| *status == Status::Ok));
        assert!(pipelined.wal.len() > 20 * 16 * 19, "twenty batches are in the log");
        assert!(pipelined == inline, "pipelined and inline commit diverged");
        let _ = std::fs::remove_dir_all(&run_dir);
        let _ = std::fs::remove_dir_all(&flush_dir);
    }

    /// A checkpoint every second batch, fifty batches: each one waits for
    /// the committer to go idle before it truncates the log the committer
    /// syncs (debug builds assert it at the reset), the run ends where the
    /// inline one does, and a restart needs no replay to get there.
    #[test]
    fn checkpoints_wait_for_the_committer_and_a_restart_is_digest_identical() {
        let triples = mixed_ops(43, 50 * 16);
        let (run_dir, flush_dir) = (scratch_dir("pipe_ckpt_run"), scratch_dir("pipe_ckpt_flush"));
        let pipelined = through_run(&run_dir, &triples, 2);
        let inline = through_flush_now(&flush_dir, &triples, 2);
        assert_eq!(pipelined.answers, inline.answers);
        assert_eq!(
            (pipelined.answer_digest, pipelined.tree_digest),
            (inline.answer_digest, inline.tree_digest)
        );
        assert_eq!(checkpoint_file(&run_dir), checkpoint_file(&flush_dir));

        let (shared, core) = open_core(stream_config(&run_dir, 2));
        let stats = shared.stats().core;
        assert_eq!(stats.replayed_batches, 0, "batch 50 was checkpointed");
        assert_eq!(core.answer_digest(), pipelined.answer_digest);
        assert_eq!(core.into_tree_digest().expect("tree"), pipelined.tree_digest);
        let _ = std::fs::remove_dir_all(&run_dir);
        let _ = std::fs::remove_dir_all(&flush_dir);
    }

    /// A failed sync is final. Sync 2 fails with batch 2 taken and batch 3
    /// queued behind it: neither is acknowledged, both get `Error`, the
    /// sync is never called again, the core is dead and says why. And on
    /// a disk that kept nothing but what a successful sync covered, a
    /// restart finds exactly the batch that was acknowledged.
    #[test]
    fn a_failed_sync_is_never_retried_and_nothing_after_it_is_acknowledged() {
        let dir = scratch_dir("pipe_fail");
        let gate = SyncGate::failing_at(2);
        let (shared, mut core) = gated_core(&dir, &gate, 1_024);
        let running = std::thread::spawn(move || core.run());
        let (tx, rx) = mpsc::channel();

        submit_batch(&shared, &tx, 0);
        gate.wait_entered(1);
        gate.permit();
        assert_eq!(recv_n(&rx, 4), all(0..4, Status::Ok));
        submit_batch(&shared, &tx, 1);
        gate.wait_entered(2);
        submit_batch(&shared, &tx, 2);
        wait_until("batch 3 marked", || shared.stats().core.batches == 3);
        gate.permit();
        assert_eq!(recv_n(&rx, 8), all(4..12, Status::Error), "taken or queued, all void");
        assert!(shared.is_dead());
        let late = shared.submit(insert(12), &tx).expect("a dead core answers at once");
        assert_eq!(late.status, Status::Error);

        let error = running.join().expect("core thread").expect("the failure is the report");
        assert!(error.to_string().contains("injected fsync failure"), "{error}");
        assert_eq!(gate.calls(), 2, "no sync after the one that failed");
        let stats = shared.stats().core;
        assert_eq!((stats.acked_writes, stats.commit_syncs), (4, 1), "{stats:?}");
        assert_eq!(stats.persist.checkpoints, 0, "a dead core installs nothing");

        // The worst disk: everything no successful sync covered is gone.
        let synced_len = gate.state.lock().expect("gate").synced_len;
        let wal = std::fs::OpenOptions::new().write(true).open(dir.join(WAL_FILE)).expect("WAL");
        assert!(wal.metadata().expect("WAL").len() > synced_len, "three batches were logged");
        wal.set_len(synced_len).expect("truncate");
        drop(wal);

        let (shared, mut core) = open_core(durable_config(&dir, None));
        assert_eq!(shared.stats().core.replayed_batches, 1, "exactly the acknowledged batch");
        let (tx, rx) = mpsc::channel();
        for key in 0..12 {
            let get =
                Request { req_id: key, kind: RequestKind::Get, budget_ns: 1 << 40, key, value: 0 };
            assert!(shared.submit(get, &tx).is_none());
        }
        core.flush_now();
        for resp in rx.try_iter() {
            let expected = (resp.req_id < 4).then_some(resp.req_id + 1);
            assert_eq!(resp.value, expected, "key {}", resp.req_id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `flush_now` answers through the committer's round too, so the
    /// commit sync seam governs it and its failure is as final: the
    /// batch's mark is written, the one sync fails, all 4 inserts are
    /// answered `Error`, the core is dead, and nothing after it is synced
    /// or acknowledged.
    #[test]
    fn a_failed_sync_under_flush_now_voids_the_batch_and_kills_the_core() {
        let dir = scratch_dir("flush_fail");
        let gate = SyncGate::failing_at(1);
        gate.open();
        let (shared, mut core) = gated_core(&dir, &gate, 1_024);
        let (tx, rx) = mpsc::channel();

        submit_batch(&shared, &tx, 0);
        core.flush_now();
        assert_eq!(recv_n(&rx, 4), all(0..4, Status::Error), "the failed sync voids the batch");
        assert!(shared.is_dead());
        let late = shared.submit(insert(4), &tx).expect("a dead core answers at once");
        assert_eq!(late.status, Status::Error);
        core.flush_now();
        assert!(rx.try_recv().is_err(), "nothing more to answer");

        assert_eq!(gate.calls(), 1, "no sync after the one that failed");
        let stats = shared.stats().core;
        assert_eq!((stats.batches, stats.persist.wal_commits), (1, 1), "{stats:?}");
        assert_eq!((stats.acked_writes, stats.commit_syncs), (0, 0), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable core with a watermark of 4 that checkpoints after every
    /// second batch, the checkpoint's temp file synced through `gate` when
    /// there is one.
    fn job_core(
        dir: &Path,
        gate: Option<&Arc<SyncGate>>,
        crash: Option<CrashPlan>,
    ) -> (Arc<ServerShared>, ServerCore) {
        let config =
            ServerConfig { batch_size: 4, checkpoint_every: 2, ..durable_config(dir, crash) };
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        if let Some(gate) = gate {
            core.set_checkpoint_sync(gate.sync_fn());
        }
        (shared, core)
    }

    /// Batches `range` one after the other, each answered in full before
    /// the next is submitted.
    fn batches_answered(
        shared: &ServerShared,
        tx: &mpsc::Sender<Response>,
        rx: &mpsc::Receiver<Response>,
        range: std::ops::Range<u64>,
    ) {
        for b in range {
            submit_batch(shared, tx, b);
            assert_eq!(recv_n(rx, 4), all(4 * b..4 * b + 4, Status::Ok), "batch {b}");
        }
    }

    /// The answer digest of an uncrashed core after `n` of
    /// `submit_batch`'s batches.
    fn digest_after(n: u64) -> u64 {
        let (shared, mut core) = open_core(mem_config(4, 1, false));
        let (tx, _rx) = mpsc::channel();
        for b in 0..n {
            submit_batch(&shared, &tx, b);
            core.flush_now();
        }
        core.answer_digest()
    }

    /// Reads `keys` back through `core`: acknowledged ⊆ recovered when
    /// each holds the value its insert wrote.
    fn assert_holds(shared: &ServerShared, core: &mut ServerCore, keys: std::ops::Range<u64>) {
        let (tx, rx) = mpsc::channel();
        for key in keys.clone() {
            let get =
                Request { req_id: key, kind: RequestKind::Get, budget_ns: 1 << 40, key, value: 0 };
            assert!(shared.submit(get, &tx).is_none());
            if key % 4 == 3 {
                core.flush_now();
            }
        }
        core.flush_now();
        let got: BTreeMap<u64, Option<u64>> = rx.try_iter().map(|r| (r.req_id, r.value)).collect();
        let want: BTreeMap<u64, Option<u64>> = keys.map(|k| (k, Some(k + 1))).collect();
        assert_eq!(got, want, "acknowledged writes lost");
    }

    /// Where the state a restart recovers stands: the live checkpoint's
    /// `next_seq` plus the batches replayed on top of it.
    fn recovered_seq(dir: &Path, shared: &ServerShared) -> u64 {
        let ckpt = dcart::read_checkpoint_pairs(dir).expect("readable").map_or(0, |c| c.next_seq);
        ckpt + shared.stats().core.replayed_batches
    }

    /// What a `kill -9` leaves: the files as they are right now (the page
    /// cache survives the process), copied to a directory of their own.
    fn killed_copy(dir: &Path, name: &str) -> PathBuf {
        let copy = scratch_dir(name);
        std::fs::create_dir_all(&copy).expect("copy directory");
        for entry in std::fs::read_dir(dir).expect("data directory") {
            let path = entry.expect("entry").path();
            std::fs::copy(&path, copy.join(path.file_name().expect("file name"))).expect("copy");
        }
        copy
    }

    fn segment(dir: &Path, i: usize) -> Vec<u8> {
        std::fs::read(dir.join(dcart::durable::WAL_SEGMENTS[i])).expect("segment")
    }

    /// Each checkpoint crash site fires on the checkpoint thread, in the
    /// second job, while the loop has already
    /// rotated on: the core dies, `run()` reports the site, and a restart
    /// holds every acknowledged batch, with the digest an uncrashed core
    /// has at the same sequence number.
    #[test]
    fn a_crash_inside_the_checkpoint_job_loses_no_acknowledged_batch() {
        let reference = digest_after(4);
        for site in [CrashSite::MidCheckpoint, CrashSite::BeforeSwap, CrashSite::AfterSwap] {
            let dir = scratch_dir(&format!("job_{}", site.name()));
            let plan = CrashPlan { site, at: 1, seed: 5 };
            let (shared, mut core) = job_core(&dir, None, Some(plan));
            let running = std::thread::spawn(move || core.run());
            let (tx, rx) = mpsc::channel();
            batches_answered(&shared, &tx, &rx, 0..4);
            wait_until("the second job crashes", || shared.is_dead());
            let error = running.join().expect("core thread").expect("the crash is the report");
            assert_eq!(error.injected_crash(), Some(site), "{error}");
            let stats = shared.stats().core;
            let installed = 1 + u64::from(site == CrashSite::AfterSwap);
            assert_eq!(stats.persist.checkpoints, installed, "{stats:?}");
            assert_eq!(stats.acked_writes, 16);

            let (shared, mut core) = open_core(durable_config(&dir, None));
            let replayed = shared.stats().core.replayed_batches;
            let expected = if site == CrashSite::AfterSwap { 0 } else { 2 };
            assert_eq!(replayed, expected, "{}: the segment past the live checkpoint", site.name());
            assert_eq!(recovered_seq(&dir, &shared), 4, "{}", site.name());
            assert_eq!(core.answer_digest(), reference, "{}: answers diverged", site.name());
            assert_holds(&shared, &mut core, 0..16);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The checkpoint job held in its temp file's fsync. The loop does not
    /// wait for it: two more batches are executed and acknowledged, into
    /// the other segment, and the loop stops only at the next rotation —
    /// the records of both segments are then, back to back, the log an
    /// inline core without checkpoints writes. Killed there, a restart
    /// replays both segments and absorbs the older one; released, the
    /// core goes on and drains cleanly.
    #[test]
    fn a_held_checkpoint_job_stops_the_loop_only_at_the_next_rotation() {
        let dir = scratch_dir("job_held");
        let gate = Arc::new(SyncGate::default());
        let (shared, core) = job_core(&dir, Some(&gate), None);
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();

        batches_answered(&shared, &tx, &rx, 0..2);
        gate.wait_entered(1);
        batches_answered(&shared, &tx, &rx, 2..4);
        let stats = shared.stats().core;
        assert_eq!((stats.batches, stats.acked_writes, stats.persist.checkpoints), (4, 16, 0));
        submit_batch(&shared, &tx, 4);
        std::thread::sleep(TWO_POLLS);
        assert!(rx.try_recv().is_err(), "the rotation after batch 4 waits for the held job");
        let stats = shared.stats();
        assert_eq!((stats.core.batches, stats.queue_depth), (4, 4), "the loop stands still");

        // Both segments hold batches: the retired one 0 and 1, the
        // active one 2 and 3.
        let inline_dir = scratch_dir("job_held_inline");
        let inline = {
            let config = ServerConfig {
                batch_size: 4,
                checkpoint_every: u64::MAX,
                ..durable_config(&inline_dir, None)
            };
            let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
            let mut core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
            let (tx, _rx) = mpsc::channel();
            for b in 0..4 {
                submit_batch(&shared, &tx, b);
                core.flush_now();
            }
            std::fs::read(inline_dir.join(WAL_FILE)).expect("WAL")
        };
        let (retired, active) = (segment(&dir, 0), segment(&dir, 1));
        assert_eq!(retired[..16], inline[..16], "same header");
        assert_eq!(active[..16], inline[..16], "same header");
        assert!(retired.len() > 16 && active.len() > 16, "both segments hold batches");
        assert!(
            [&retired[16..], &active[16..]].concat() == inline[16..],
            "the segments' records are the single log's"
        );

        let killed = killed_copy(&dir, "job_held_killed");
        let (restarted, core) = open_core(durable_config(&killed, None));
        let stats = restarted.stats().core;
        assert_eq!(stats.replayed_batches, 4, "both segments replay");
        assert_eq!(core.answer_digest(), shared.stats().core.answer_digest);
        assert_eq!(stats.persist.checkpoints, 1, "{stats:?}");
        assert_eq!(segment(&killed, 0).len(), 16, "the older segment is absorbed and emptied");
        drop(core);
        let (again, mut core) = open_core(durable_config(&killed, None));
        assert_eq!(again.stats().core.replayed_batches, 0, "batch 4 was checkpointed at open");
        assert_holds(&again, &mut core, 0..16);

        gate.open();
        assert_eq!(recv_n(&rx, 4), all(16..20, Status::Ok), "released, the loop goes on");
        shared.request_shutdown();
        let core = running.join().expect("core thread");
        let answer = core.answer_digest();
        drop(core);
        let (reopened, core) = open_core(durable_config(&dir, None));
        assert_eq!(reopened.stats().core.replayed_batches, 0);
        assert_eq!(core.answer_digest(), answer);
        for d in [&dir, &inline_dir, &killed] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// The killed directory above — batches 0 and 1 in the retired
    /// segment, 2 and 3 in the active one, no checkpoint installed — opened
    /// by `DurableLog::open` alone: both segments replay, to the digest the
    /// server had at sequence number 4. And resumed by `run_durable`, whose
    /// open absorbs the older segment with a checkpoint on the injector it
    /// was given: a crash planned there fires, and the next run completes
    /// the absorb.
    #[test]
    fn a_killed_directory_with_batches_in_both_segments_recovers_offline() {
        let dir = scratch_dir("job_held_offline");
        let gate = Arc::new(SyncGate::default());
        let (shared, core) = job_core(&dir, Some(&gate), None);
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();
        batches_answered(&shared, &tx, &rx, 0..2);
        gate.wait_entered(1);
        batches_answered(&shared, &tx, &rx, 2..4);
        let killed = killed_copy(&dir, "job_held_offline_killed");
        let stats = shared.stats().core;
        assert_eq!(stats.batches, 4, "an answered batch is a counted one");
        let served = stats.answer_digest;
        gate.open();
        shared.request_shutdown();
        running.join().expect("core thread");
        assert!(segment(&killed, 0).len() > 16 && segment(&killed, 1).len() > 16);

        let no_keys = KeySet {
            name: String::new(),
            keys: Vec::new(),
            insert_pool: Vec::new(),
            popularity: Vec::new(),
        };
        let dur = DurabilityConfig { dir: killed.clone(), checkpoint_every: 4 };
        let (config, opts) = (DcartConfig::default(), ExecOpts::default());
        let Opened { log, session, .. } =
            DurableLog::open(&killed, &[], &config, &opts, 4).expect("recovers");
        assert_eq!((log.next_seq(), log.persist().replayed_batches), (4, 4));
        assert!(dcart::read_checkpoint_pairs(&killed).expect("readable").is_none());
        assert_eq!(session.answer_digest(), served, "the server's digest at sequence number 4");
        assert_eq!(session.answer_digest(), digest_after(4));
        drop((log, session));

        let ops: Vec<Op> = (0..16)
            .map(|k| Op { kind: OpKind::Insert, key: Key::from_u64(k), value: k + 1 })
            .collect();
        let plan = CrashPlan { site: CrashSite::MidCheckpoint, at: 0, seed: 5 };
        let mut crash = CrashInjector::for_plan(plan);
        let out = dcart::run_durable(&no_keys, &ops, &config, 4, &opts, &dur, &mut crash)
            .expect("an injected crash is an outcome");
        assert_eq!(out.crashed, Some(CrashSite::MidCheckpoint), "the absorb fires the plan");
        let mut none = CrashInjector::counting();
        let out = dcart::run_durable(&no_keys, &ops, &config, 4, &opts, &dur, &mut none)
            .expect("resumes");
        let replayed = out.persist.replayed_batches;
        assert_eq!((out.crashed, replayed, out.batches_committed), (None, 4, 0));
        assert_eq!((out.answer_digest, out.persist.checkpoints), (served, 1));
        assert_eq!(segment(&killed, 0).len(), 16, "the older segment is absorbed and emptied");
        for d in [&dir, &killed] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// An install that fails — the second job's temp-file fsync returns
    /// an error — kills the core, `run()` returns the error, and the old
    /// checkpoint with both segments still holds every acknowledged batch.
    #[test]
    fn a_failed_checkpoint_install_kills_the_core_and_loses_nothing() {
        let dir = scratch_dir("job_fail");
        let gate = SyncGate::failing_at(2);
        gate.open();
        let (shared, mut core) = job_core(&dir, Some(&gate), None);
        let running = std::thread::spawn(move || core.run());
        let (tx, rx) = mpsc::channel();
        batches_answered(&shared, &tx, &rx, 0..4);
        wait_until("the second install fails", || shared.is_dead());
        let late = shared.submit(insert(99), &tx).expect("a dead core answers at once");
        assert_eq!(late.status, Status::Error);
        let error = running.join().expect("core thread").expect("the failure is the report");
        assert!(error.to_string().contains("injected fsync failure"), "{error}");
        assert_eq!(shared.stats().core.persist.checkpoints, 1, "only the first job installed");

        let (shared, mut core) = open_core(durable_config(&dir, None));
        assert_eq!(shared.stats().core.replayed_batches, 2);
        assert_eq!(recovered_seq(&dir, &shared), 4);
        assert_eq!(core.answer_digest(), digest_after(4));
        assert_holds(&shared, &mut core, 0..16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory a single-file build wrote — one `dcart.wal` with a
    /// version-1 header, no second segment — is refused with the WAL's
    /// version error, and the open writes nothing: no header rewritten,
    /// no second segment created.
    #[test]
    fn a_single_file_version_1_directory_is_refused_untouched() {
        let dir = scratch_dir("v1_dir");
        let config = || ServerConfig {
            batch_size: 4,
            checkpoint_every: u64::MAX,
            ..durable_config(&dir, None)
        };
        let (shared, mut core) = open_core(config());
        let (tx, _rx) = mpsc::channel();
        for b in 0..3 {
            submit_batch(&shared, &tx, b);
            core.flush_now();
        }
        drop(core);
        let wal = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal).expect("WAL");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&wal, &bytes).expect("WAL");
        std::fs::remove_file(dir.join(dcart::durable::WAL_SEGMENTS[1])).expect("second segment");

        let shared = ServerShared::new(config().admission, Arc::new(TestClock::new()));
        let err = ServerCore::open(config(), shared, &[]).err().expect("version 1 is refused");
        assert!(err.to_string().contains("version 1 "), "{err}");
        assert_eq!(segment(&dir, 0), bytes, "the version-1 log is left as it was");
        let names: Vec<_> = std::fs::read_dir(&dir).expect("data directory").collect();
        assert_eq!(names.len(), 1, "the open created nothing: {names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The job thread and the inline path write one protocol: with a
    /// checkpoint every second batch, the file the checkpoint thread
    /// installed at batch 6 is, byte for byte, the one `flush_now`
    /// installed inline at the same sequence number.
    #[test]
    fn checkpoints_from_the_job_thread_and_inline_are_byte_identical() {
        let triples = mixed_ops(47, 6 * 16);
        let (run_dir, flush_dir) = (scratch_dir("job_diff_run"), scratch_dir("job_diff_flush"));

        let config = stream_config(&run_dir, 2);
        let shared = ServerShared::new(config.admission, Arc::new(TestClock::new()));
        let core = ServerCore::open(config, Arc::clone(&shared), &[]).expect("open");
        let running = spawn_core(core);
        let (tx, rx) = mpsc::channel();
        let mut immediate = Vec::new();
        shared.submit_group(&requests(&triples), || Reply::Channel(tx.clone()), &mut immediate);
        assert!(immediate.is_empty(), "{immediate:?}");
        let answered = recv_n(&rx, triples.len());
        assert!(answered.iter().all(|&(_, status)| status == Status::Ok));
        wait_until("three jobs ended", || shared.stats().core.persist.checkpoints == 3);
        let from_job = checkpoint_file(&run_dir);

        let config = stream_config(&flush_dir, 2);
        let (inline_shared, mut inline) = open_core(config);
        for chunk in requests(&triples).chunks(16) {
            let mut immediate = Vec::new();
            inline_shared.submit_group(chunk, || Reply::Channel(tx.clone()), &mut immediate);
            inline.flush_now();
        }
        assert_eq!(inline_shared.stats().core.persist.checkpoints, 3);
        assert!(from_job == checkpoint_file(&flush_dir), "job and inline checkpoints differ");
        assert_eq!(
            dcart::read_checkpoint_pairs(&run_dir).expect("readable").map(|c| c.next_seq),
            Some(6)
        );

        shared.request_shutdown();
        running.join().expect("core thread");
        let _ = std::fs::remove_dir_all(&run_dir);
        let _ = std::fs::remove_dir_all(&flush_dir);
    }
}

mod tcp {
    //! The TCP front end, driven by real loopback clients.

    use std::collections::BTreeMap;
    use std::io::{BufReader, ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    use dcart_server::wire::{decode_response, encode_request, read_frame, WireError};
    use dcart_server::{serve, ServeHandle};

    use super::*;

    fn serve_with(config: ServerConfig, clock: Arc<dyn Clock>) -> (ServeHandle, SocketAddr) {
        let handle = serve(config, "127.0.0.1:0", clock).expect("serve");
        let addr = handle.local_addr();
        (handle, addr)
    }

    /// Reads answers until the server closes the connection; any torn or
    /// interleaved frame fails the magic or checksum test in `read_frame`.
    fn answers_until_close(stream: &TcpStream) -> Vec<Response> {
        let mut reader = BufReader::new(stream);
        let mut answers = Vec::new();
        while let Some(body) = read_frame(&mut reader).expect("well-formed frames only") {
            answers.push(decode_response(&body).expect("a response"));
        }
        answers
    }

    fn round_trip(stream: &mut TcpStream, req: &Request) -> Result<Response, WireError> {
        stream.write_all(&encode_request(req))?;
        let body = read_frame(stream)?.ok_or(WireError::Truncated)?;
        decode_response(&body)
    }

    /// One connection pipelines 2 000 requests — operations, `stats`
    /// requests and requests whose one-nanosecond budget runs out in the
    /// queue — in writes that cut frames anywhere: exactly one well-formed
    /// answer per `req_id`, of the right kind.
    #[test]
    fn pipelined_requests_each_get_exactly_one_whole_answer() {
        // Time passes with every reading, so a 1 ns budget is gone by the
        // flush.
        let clock = Arc::new(TickingClock(AtomicU64::new(0)));
        let mut config = mem_config(64, 1, false);
        config.admission.queue_capacity = 4_096; // nothing bounces off a full queue
        let (handle, addr) = serve_with(config, clock);
        let total = 2_000u64;
        let is_stats = |i: u64| i % 50 == 7;
        let over_budget = |i: u64| i % 31 == 3;
        let mut bytes = Vec::new();
        for (i, (kind, key, value)) in mixed_ops(5, total).into_iter().enumerate() {
            let i = i as u64;
            let req = if is_stats(i) {
                Request { req_id: i, kind: RequestKind::Stats, budget_ns: 0, key: 0, value: 0 }
            } else {
                let budget_ns = if over_budget(i) { 1 } else { 1 << 40 };
                Request { req_id: i, kind, budget_ns, key, value }
            };
            bytes.extend_from_slice(&encode_request(&req));
        }

        let stream = TcpStream::connect(addr).expect("connect");
        let answers = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut half = &stream;
                for (n, chunk) in bytes.chunks(997).enumerate() {
                    half.write_all(chunk).expect("send");
                    if n % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            let mut reader = BufReader::new(&stream);
            let mut answers = BTreeMap::new();
            for _ in 0..total {
                let body = read_frame(&mut reader).expect("well-formed frame").expect("open");
                let resp = decode_response(&body).expect("a response");
                assert!(answers.insert(resp.req_id, resp).is_none(), "answered twice");
            }
            answers
        });
        assert_eq!(answers.len() as u64, total);
        for (&i, resp) in &answers {
            if is_stats(i) {
                let text = std::str::from_utf8(&resp.payload).expect("utf8");
                assert!(resp.status == Status::Ok && text.contains("\"accepted\":"), "{i}: {text}");
            } else if over_budget(i) {
                assert_eq!(resp.reject, Some(RejectReason::DeadlineExceeded), "{i}");
            } else {
                assert_eq!(resp.status, Status::Ok, "{i}");
            }
        }
        drop(stream);
        handle.shutdown_and_join().expect("drain");
    }

    /// A request whose bytes arrive more than a read timeout apart — cut
    /// inside the magic, inside the length, inside the body, inside the
    /// checksum — is one request: the bytes the timeout found are kept.
    #[test]
    fn a_frame_that_arrives_slower_than_the_read_timeout_is_still_answered() {
        let (handle, addr) = serve_with(mem_config(1, 1, false), Arc::new(TestClock::new()));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let len = encode_request(&insert(0)).len();
        for (req_id, cut) in [3, 10, 20, len - 2].into_iter().enumerate() {
            let frame = encode_request(&insert(req_id as u64));
            stream.write_all(&frame[..cut]).expect("first part");
            std::thread::sleep(Duration::from_millis(80)); // three read timeouts
            stream.write_all(&frame[cut..]).expect("second part");
            let body = read_frame(&mut stream).expect("answered, not reset").expect("open");
            let resp = decode_response(&body).expect("a response");
            assert_eq!((resp.req_id, resp.status), (req_id as u64, Status::Ok), "cut at {cut}");
        }
        drop(stream);
        handle.shutdown_and_join().expect("drain");
    }

    /// `shutdown` behind requests sent in the same write: every admitted
    /// request is answered before the server closes the connection —
    /// from memory, and durably, where the answers come from the committer
    /// thread, `run()` joins it before it returns, and the drain checkpoint
    /// holds every acknowledged write. How many batches the 40 requests
    /// make depends on how the socket delivers them, so that goes unchecked.
    #[test]
    fn shutdown_answers_every_admitted_request_before_the_socket_closes() {
        let dir = scratch_dir("tcp_shutdown");
        for config in [mem_config(64, 1, false), durable_config(&dir, None)] {
            let durable = config.data_dir.is_some();
            let (handle, addr) = serve_with(config, Arc::new(TestClock::new()));
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut bytes: Vec<u8> = (0..40).flat_map(|i| encode_request(&insert(i))).collect();
            let bye =
                Request { req_id: 99, kind: RequestKind::Shutdown, budget_ns: 0, key: 0, value: 0 };
            bytes.extend_from_slice(&encode_request(&bye));
            stream.write_all(&bytes).expect("send");

            let answers = answers_until_close(&stream);
            let mut ids: Vec<u64> = answers.iter().map(|r| r.req_id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..40).chain([99]).collect::<Vec<u64>>(), "durable: {durable}");
            assert!(answers.iter().all(|r| r.status == Status::Ok), "{answers:?}");
            let stats = handle.shared().stats().core;
            let report = handle.join().expect("drained by the wire request");
            assert_ne!(report.answer_digest, 0, "the queued requests were executed");
            assert_eq!(stats.ops, 40, "{stats:?}");
            if durable {
                assert_eq!(stats.acked_writes, 40, "{stats:?}");
                assert!((1..=stats.batches).contains(&stats.commit_syncs), "{stats:?}");
                let (shared, core) = open_core(durable_config(&dir, None));
                assert_eq!(shared.stats().core.replayed_batches, 0, "the checkpoint has it all");
                assert_eq!(core.answer_digest(), report.answer_digest);
                assert_eq!(core.into_tree_digest().expect("tree"), report.tree_digest);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A core killed by an injected `BeforeCommit` crash answers `Error`
    /// to the batch it was in and to everything queued behind it. Where the
    /// batches fall depends on the socket, so the check is that the answers
    /// split, in submission order, into the `Ok`s of the two committed
    /// batches and the `Error`s of everything from the killed one on.
    #[test]
    fn a_dead_core_answers_error_to_everything_queued() {
        let dir = scratch_dir("tcp_dead");
        let plan = CrashPlan { site: CrashSite::BeforeCommit, at: 2, seed: 3 };
        let (handle, addr) =
            serve_with(durable_config(&dir, Some(plan)), Arc::new(TestClock::new()));
        let stream = TcpStream::connect(addr).expect("connect");
        let bytes: Vec<u8> = (0..80).flat_map(|i| encode_request(&insert(i))).collect();
        (&stream).write_all(&bytes).expect("send");

        let mut reader = BufReader::new(&stream);
        let mut by_status = BTreeMap::new();
        for _ in 0..80 {
            let body = read_frame(&mut reader).expect("well-formed frame").expect("open");
            let resp = decode_response(&body).expect("a response");
            assert!(by_status.insert(resp.req_id, resp.status).is_none(), "answered twice");
        }
        let statuses: Vec<Status> = by_status.into_values().collect();
        let acked = statuses.iter().take_while(|&&s| s == Status::Ok).count();
        assert!(statuses[acked..].iter().all(|&s| s == Status::Error), "{statuses:?}");
        // Two committed batches of 1 to 16 requests each; the third killed.
        assert!((2..=32).contains(&acked), "{acked} acknowledged");
        assert_eq!(handle.shared().stats().core.acked_writes, acked as u64);
        assert!(handle.shared().is_dead());
        assert!(handle.join().is_err(), "the injected crash is the core's report");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer that keeps sending and never reads: its answers pile up in
    /// its outbound buffer only up to the cap, then the server hangs up on
    /// it — while another connection is answered throughout (refused, as
    /// long as the flood keeps the queue full), and the server drains
    /// cleanly afterwards.
    #[test]
    fn a_peer_that_never_reads_is_disconnected_and_nobody_else_notices() {
        let (handle, addr) = serve_with(mem_config(64, 1, false), Arc::new(TestClock::new()));
        let mut polite = TcpStream::connect(addr).expect("connect");
        polite.set_nodelay(true).expect("nodelay");
        assert_eq!(round_trip(&mut polite, &insert(1)).expect("answered").status, Status::Ok);

        let deaf = TcpStream::connect(addr).expect("connect");
        let hung_up = AtomicBool::new(false);
        let served_meanwhile = std::thread::scope(|scope| {
            scope.spawn(|| {
                // 200 k answers are 10 MB: more than the kernel's buffers
                // and the cap hold together. Far fewer gets are refused
                // than executed, and a refusal is an answer too.
                let get = |i| Request {
                    req_id: i,
                    kind: RequestKind::Get,
                    budget_ns: 1 << 40,
                    key: i % 512,
                    value: 0,
                };
                let mut half = &deaf;
                'flood: for burst in 0..20_000u64 {
                    let bytes: Vec<u8> =
                        (0..64).flat_map(|i| encode_request(&get(burst * 64 + i))).collect();
                    if half.write_all(&bytes).is_err() {
                        break 'flood;
                    }
                }
                // The server's side is gone: the stream ends (in a reset,
                // if requests were still unread) without 200 k answers.
                let mut sink = [0u8; 1 << 16];
                let mut received = 0usize;
                loop {
                    match half.read(&mut sink) {
                        Ok(0) => break,
                        Ok(n) => received += n,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                assert!(received < 200_000 * 51, "the peer was never cut off: {received} bytes");
                hung_up.store(true, Ordering::SeqCst);
            });
            let mut served = 0u64;
            while !hung_up.load(Ordering::SeqCst) {
                let resp = round_trip(&mut polite, &insert(2 + served)).expect("answered");
                assert_eq!(resp.req_id, 2 + served);
                served += 1;
            }
            served
        });
        assert!(served_meanwhile > 0);
        // What the flood left in the queue drains; then writes get in again.
        let admitted_again = (0..10_000)
            .any(|_| round_trip(&mut polite, &insert(0)).expect("answered").status == Status::Ok);
        assert!(admitted_again);
        drop((polite, deaf));
        handle.shutdown_and_join().expect("drains cleanly");
    }
}
