//! Integration tests for the serving core: batch determinism against the
//! offline repro path, zero acked-write loss across an injected kill,
//! crashes inside a merged checkpoint, the drain checkpoint, deadline
//! enforcement under a hand-driven clock, and a TCP end-to-end smoke —
//! all with `TestClock` (or a clock that ticks per reading), so nothing
//! here depends on wall time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use dcart::{CttConsumer, CttSession, DcartConfig, ExecOpts, TraverseMode};
use dcart_art::Key;
use dcart_engine::time::{Clock, TestClock};
use dcart_engine::{CrashPlan, CrashSite, RejectReason};
use dcart_server::wire::{Request, RequestKind, Status};
use dcart_server::{ServerConfig, ServerCore, ServerShared};
use dcart_workloads::{Op, OpKind};

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

/// The tentpole invariant: the server path and the offline repro path
/// produce byte-identical digests for the same ops and batch boundaries,
/// at every thread count and with stealing on.
#[test]
fn server_batches_match_repro_path_digests() {
    let batch = 64;
    let triples = mixed_ops(7, 640);
    let ops = to_executor_ops(&triples);

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
    let repro_answer = session.answer_digest();
    let (tree, _, _) = session.finish().expect("finish");
    let repro_tree = dcart::tree_digest(&tree);

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

/// Kill the core inside its *second* checkpoint — the first one that is
/// merged from dirty keys rather than walked — at each of the three
/// checkpoint crash sites, restart, and finish the stream. The restarted
/// core must end with the digests of a core that never crashed, hold
/// every acknowledged write, and its first checkpoint (a full walk: it
/// has no image) must be, byte for byte, the merged one the uncrashed
/// core wrote at the same sequence number.
#[test]
fn crash_inside_a_merged_checkpoint_recovers_to_the_uncrashed_state() {
    let triples = mixed_ops(23, 9 * 16);

    let clean_dir = scratch_dir("merged_clean");
    let (clean_shared, mut clean) = open_core(durable_config(&clean_dir, None));
    let mut clean_acked = BTreeMap::new();
    assert_eq!(drive(&clean_shared, &mut clean, &triples, &mut clean_acked), 0);
    let stats = clean_shared.stats().core;
    assert_eq!((stats.checkpoints_walked, stats.checkpoints_merged), (1, 2), "{stats:?}");
    assert!(stats.checkpoint_dirty_keys > 0 && stats.checkpoint_dirty_keys <= 6 * 16);
    assert_eq!(stats.persist.checkpoints, 3);
    // Each stall spans exactly two readings of the injected clock.
    assert_eq!(stats.checkpoint_stall_ns_total, 3 * TICK_NS);
    assert_eq!(stats.checkpoint_stall_ns_max, TICK_NS);
    let clean_file = checkpoint_file(&clean_dir);
    let clean_answer = clean.answer_digest();
    let clean_tree = clean.into_tree_digest().expect("tree");

    for site in [CrashSite::MidCheckpoint, CrashSite::BeforeSwap, CrashSite::AfterSwap] {
        let dir = scratch_dir(&format!("merged_{}", site.name()));
        let plan = CrashPlan { site, at: 1, seed: 5 };
        let (shared, mut core) = open_core(durable_config(&dir, Some(plan)));
        let mut acked = BTreeMap::new();
        // Batches 0..6: the checkpoint after batch 5 is the second one.
        let (before, after) = triples.split_at(6 * 16);
        assert_eq!(drive(&shared, &mut core, before, &mut acked), 0, "acks precede the checkpoint");
        assert!(shared.is_dead(), "{}: the planned crash kills the core", site.name());
        let stats = shared.stats().core;
        assert_eq!((stats.checkpoints_walked, stats.checkpoints_merged), (1, 0), "{stats:?}");
        assert_eq!(stats.batches, 6);
        assert_eq!(drive(&shared, &mut core, &after[..16], &mut acked), 16, "dead cores refuse");
        drop(core);

        let (shared, mut core) = open_core(durable_config(&dir, None));
        let replayed = shared.stats().core.replayed_batches;
        let expected = if site == CrashSite::AfterSwap { 0 } else { 3 };
        assert_eq!(replayed, expected, "{}: WAL suffix past the live checkpoint", site.name());
        assert_eq!(drive(&shared, &mut core, after, &mut acked), 0);
        let stats = shared.stats().core;
        assert_eq!((stats.checkpoints_walked, stats.checkpoints_merged), (1, 0), "{stats:?}");
        assert!(
            checkpoint_file(&dir) == clean_file,
            "{}: walked checkpoint differs from the uncrashed core's merged one",
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
    assert_eq!((stats.checkpoints_walked, stats.persist.checkpoints), (1, 1));
    let empty = checkpoint_file(&dir);
    drop(core);

    // Reopened and drained again with nothing new: not rewritten.
    let (shared, mut core) = open_core(durable_config(&dir, None));
    let stats = drain(&mut core, &shared);
    assert_eq!((stats.checkpoints_walked, stats.persist.checkpoint_bytes), (0, 0));
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
    assert_eq!((stats.checkpoints_walked, stats.checkpoints_merged), (1, 0), "{stats:?}");
    assert_eq!(stats.persist.checkpoints, 1);
    assert_eq!(checkpoint_file(&dir), periodic);
    drop(core);

    // One batch past the checkpoint: drain walks, and restart replays
    // nothing.
    let (shared, mut core) = open_core(durable_config(&dir, None));
    assert_eq!(drive(&shared, &mut core, &triples[3 * 16..], &mut acked), 0);
    let stats = drain(&mut core, &shared);
    assert_eq!((stats.checkpoints_walked, stats.checkpoints_merged), (1, 0), "{stats:?}");
    assert_ne!(checkpoint_file(&dir), periodic);
    let answer = core.answer_digest();
    drop(core);
    let (shared, core) = open_core(durable_config(&dir, None));
    assert_eq!(shared.stats().core.replayed_batches, 0);
    assert_eq!(core.answer_digest(), answer);
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

    // An already-expired budget is rejected at admission, before queueing.
    clock.advance(10);
    let late = Request { req_id: 3, kind: RequestKind::Get, budget_ns: 0, key: 7, value: 0 };
    // budget 0 → server default (50 ms), fine; now force expiry with the
    // minimum budget and a clock far ahead of... admission computes the
    // deadline from `now`, so only in-queue waits can expire it. Instead,
    // verify the draining path gives an immediate typed answer.
    shared.request_shutdown();
    let resp = shared.submit(late, &tx).expect("immediate");
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

/// End-to-end over a real socket: requests go through the TCP front end,
/// coalesce in the core, and come back acknowledged; shutdown drains.
#[test]
fn tcp_end_to_end_roundtrip() {
    use dcart_server::wire::{decode_response, encode_request, read_frame, write_frame};
    use std::net::TcpStream;

    let batch = 8usize;
    let config = ServerConfig {
        batch_size: batch,
        linger_ns: u64::MAX, // watermark-only flushes under TestClock
        ..ServerConfig::default()
    };
    let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
    let handle = dcart_server::serve(config, "127.0.0.1:0", clock).expect("serve");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    for i in 0..batch as u64 {
        let req = Request {
            req_id: i,
            kind: RequestKind::Insert,
            budget_ns: 1 << 40,
            key: i,
            value: i + 10,
        };
        write_frame(&mut stream, &encode_request(&req)).expect("send");
    }
    let mut acked = 0;
    while acked < batch {
        let body = read_frame(&mut stream).expect("frame").expect("open");
        let resp = decode_response(&body).expect("decode");
        assert_eq!(resp.status, Status::Ok);
        acked += 1;
    }

    let report = handle.shutdown_and_join().expect("drain");
    assert_ne!(report.answer_digest, 0, "batches executed");
}
