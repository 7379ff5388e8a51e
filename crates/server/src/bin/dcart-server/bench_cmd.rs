//! `dcart-server bench` — the overload-robustness proof, in one JSON.
//!
//! Four cells, all in-process over loopback TCP:
//!
//! * **sweep** — a QPS ladder; p50/p95/p99 of accepted requests per rung;
//! * **overload** — offered load far beyond capacity against a small
//!   queue: p99 of *accepted* requests stays bounded while rejections
//!   and the shedding latches absorb the excess;
//! * **chaos** — a durable server killed (injected `BeforeCommit` crash)
//!   mid-load, restarted, and audited: every acknowledged insert must be
//!   readable after recovery — zero acked-write loss;
//! * **determinism** — the same seeded op stream through the server path
//!   and the offline repro path must produce byte-identical answer and
//!   tree digests.
//!
//! The process exits nonzero if the chaos or determinism cell fails, so
//! CI needs no JSON parsing to enforce the invariants.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dcart::{CttSession, DcartConfig, ExecOpts, TraverseMode};
use dcart_engine::time::Clock;
use dcart_engine::{CrashPlan, CrashSite};
use dcart_server::wire::RequestKind;
use dcart_server::{serve, AdmissionConfig, ServerConfig, ServerStats};
use dcart_workloads::ArrivalPattern;
use serde::Serialize;

use crate::client::Client;
use crate::clock::WallClock;
use crate::loadgen::{ops_for, run_load, LoadConfig, LoadSummary};

#[derive(Serialize)]
struct SweepCell {
    qps: u64,
    load: LoadSummary,
    stats: ServerStats,
}

#[derive(Serialize)]
struct OverloadCell {
    qps: u64,
    queue_capacity: u64,
    load: LoadSummary,
    stats: ServerStats,
    /// The headline claim: accepted-request p99 stayed under the bound
    /// while the server was offered ~20x its capacity.
    p99_bound_us: f64,
    p99_bounded: bool,
    rejections_rose: bool,
}

#[derive(Serialize)]
struct ChaosCell {
    crash_site: String,
    crash_at_batch: u64,
    acked_inserts: u64,
    errors_at_crash: u64,
    unanswered_at_crash: u64,
    replayed_batches_on_restart: u64,
    missing_after_recovery: u64,
    verdict: String,
}

#[derive(Serialize)]
struct DeterminismCell {
    ops: u64,
    batch_size: usize,
    server_answer_digest: String,
    repro_answer_digest: String,
    server_tree_digest: String,
    repro_tree_digest: String,
    digests_match: bool,
}

#[derive(Serialize)]
struct ServeBench {
    schema: &'static str,
    seed: u64,
    sou_threads: usize,
    steal: bool,
    sweep: Vec<SweepCell>,
    overload: OverloadCell,
    chaos: ChaosCell,
    determinism: DeterminismCell,
}

pub struct BenchOpts {
    pub seed: u64,
    pub sou_threads: usize,
    pub steal: bool,
    pub out: std::path::PathBuf,
    pub data_dir: std::path::PathBuf,
}

fn base_config(opts: &BenchOpts) -> ServerConfig {
    ServerConfig {
        dcart: DcartConfig::default(),
        threads: opts.sou_threads,
        steal: opts.steal,
        batch_size: 64,
        linger_ns: 500_000, // 0.5 ms
        data_dir: None,
        checkpoint_every: 64,
        admission: AdmissionConfig::default(),
        crash: None,
    }
}

fn sweep_cell(opts: &BenchOpts, qps: u64) -> Result<SweepCell, String> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let handle = serve(base_config(opts), "127.0.0.1:0", Arc::clone(&clock))
        .map_err(|e| format!("sweep serve: {e}"))?;
    let addr = handle.local_addr().to_string();
    let cfg = LoadConfig { seed: opts.seed, qps, ops: 3_000, ..LoadConfig::default() };
    let (load, _) = run_load(&addr, &cfg, Arc::clone(&clock), Duration::from_secs(3))
        .map_err(|e| format!("sweep load: {e}"))?;
    let stats = handle.shared().stats();
    handle.shutdown_and_join().map_err(|e| format!("sweep join: {e}"))?;
    Ok(SweepCell { qps, load, stats })
}

fn overload_cell(opts: &BenchOpts) -> Result<OverloadCell, String> {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let mut config = base_config(opts);
    // A deliberately small queue so the offered load (~20x the sweep's
    // top rung) slams into admission, not into unbounded memory.
    config.admission.queue_capacity = 128;
    let queue_capacity = config.admission.queue_capacity;
    let qps = 400_000;
    let handle = serve(config, "127.0.0.1:0", Arc::clone(&clock))
        .map_err(|e| format!("overload serve: {e}"))?;
    let addr = handle.local_addr().to_string();
    let cfg = LoadConfig {
        seed: opts.seed ^ 0xdead,
        qps,
        ops: 20_000,
        scan_pct: 10,
        pattern: ArrivalPattern::Bursty,
        ..LoadConfig::default()
    };
    let (load, _) = run_load(&addr, &cfg, Arc::clone(&clock), Duration::from_secs(3))
        .map_err(|e| format!("overload load: {e}"))?;
    let stats = handle.shared().stats();
    handle.shutdown_and_join().map_err(|e| format!("overload join: {e}"))?;
    // The bound: an accepted request's client-measured round trip is (a)
    // pre-admission queueing in the TCP buffer and the connection
    // reader's decode loop — the server hasn't timestamped it yet, so
    // admission cannot bound this leg; (b) queue sojourn, at most the
    // 50 ms default budget because deadlines are enforced at batch
    // dispatch; (c) one batch's execution-and-reply envelope. 3x budget
    // absorbs (a) and (c) at this burst rate while still proving the
    // point: without admission the 20x-capacity backlog would push p99
    // to the multi-second scale, not the budget scale.
    let p99_bound_us = 150_000.0;
    Ok(OverloadCell {
        qps,
        queue_capacity,
        p99_bounded: load.p99_us > 0.0 && load.p99_us <= p99_bound_us,
        rejections_rose: load.rejected_total() > 0,
        p99_bound_us,
        load,
        stats,
    })
}

fn chaos_cell(opts: &BenchOpts) -> Result<ChaosCell, String> {
    let dir = &opts.data_dir;
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("chaos dir reset: {e}"))?;
    }
    let crash_at_batch = 6;
    // Phase 1: durable server with a planned kill after batch 6's ops
    // record is on disk but before its commit mark — the worst honest
    // moment to die (work durable-looking, nothing promised).
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let mut config = base_config(opts);
    config.data_dir = Some(dir.clone());
    config.batch_size = 32;
    config.checkpoint_every = 4; // force checkpoints into the story too
    config.crash =
        Some(CrashPlan { site: CrashSite::BeforeCommit, at: crash_at_batch, seed: opts.seed });
    let handle = serve(config, "127.0.0.1:0", Arc::clone(&clock))
        .map_err(|e| format!("chaos serve: {e}"))?;
    let addr = handle.local_addr().to_string();
    let cfg = LoadConfig {
        seed: opts.seed ^ 0xc4a05,
        qps: 200_000,
        ops: 2_000,
        insert_pct: 80,
        remove_pct: 0,
        scan_pct: 0,
        ..LoadConfig::default()
    };
    let (load, acked_keys) = run_load(&addr, &cfg, Arc::clone(&clock), Duration::from_secs(3))
        .map_err(|e| format!("chaos load: {e}"))?;
    // The join surfaces the injected crash as an error — expected.
    let crashed = handle.shutdown_and_join().is_err();
    if !crashed {
        return Err("chaos cell: injected crash never fired (load too small?)".to_string());
    }

    // Phase 2: restart on the same directory; recovery replays only
    // committed batches. Audit every acknowledged insert over the wire.
    let clock2: Arc<dyn Clock> = Arc::new(WallClock::new());
    let mut config2 = base_config(opts);
    config2.data_dir = Some(dir.clone());
    config2.batch_size = 32;
    let handle2 = serve(config2, "127.0.0.1:0", Arc::clone(&clock2))
        .map_err(|e| format!("chaos recovery serve: {e}"))?;
    let addr2 = handle2.local_addr().to_string();
    let replayed = handle2.shared().stats().core.replayed_batches;
    let mut audit = Client::connect(&addr2, Arc::clone(&clock2))
        .map_err(|e| format!("chaos audit connect: {e}"))?;
    for &key in &acked_keys {
        audit.send(RequestKind::Get, key, 0, 10_000_000_000);
    }
    let (accum, unanswered) = audit.finish(Duration::from_secs(10));
    let missing = accum.get_misses.len() as u64 + unanswered as u64;
    handle2.shutdown_and_join().map_err(|e| format!("chaos recovery join: {e}"))?;
    Ok(ChaosCell {
        crash_site: "before-commit".to_string(),
        crash_at_batch,
        acked_inserts: acked_keys.len() as u64,
        errors_at_crash: load.errors,
        unanswered_at_crash: load.unanswered,
        replayed_batches_on_restart: replayed,
        missing_after_recovery: missing,
        verdict: if missing == 0 {
            "zero-acked-write-loss".to_string()
        } else {
            format!("LOST {missing} ACKED WRITES")
        },
    })
}

fn determinism_cell(opts: &BenchOpts) -> Result<DeterminismCell, String> {
    let ops_count = 1_024u64;
    let batch_size = 128usize;
    let cfg = LoadConfig {
        seed: opts.seed ^ 0xd17e57,
        qps: 10_000_000, // send as fast as the socket allows
        ops: ops_count,
        budget_ns: 10_000_000_000, // no deadline interference
        ..LoadConfig::default()
    };

    // Server path: watermark-only flushes (huge linger, capacity above
    // the op count) make batch boundaries exact multiples of batch_size.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let mut config = base_config(opts);
    config.batch_size = batch_size;
    config.linger_ns = 10_000_000_000;
    config.admission.queue_capacity = 4_096;
    let handle = serve(config, "127.0.0.1:0", Arc::clone(&clock))
        .map_err(|e| format!("determinism serve: {e}"))?;
    let addr = handle.local_addr().to_string();
    let (load, _) = run_load(&addr, &cfg, Arc::clone(&clock), Duration::from_secs(10))
        .map_err(|e| format!("determinism load: {e}"))?;
    if load.acked != ops_count {
        return Err(format!(
            "determinism cell expects every op acked: {} of {ops_count}",
            load.acked
        ));
    }
    let report = handle.shutdown_and_join().map_err(|e| format!("determinism join: {e}"))?;

    // Repro path: same ops, same chunking, straight through the session.
    let exec =
        ExecOpts { threads: opts.sou_threads, mode: TraverseMode::LevelWise, steal: opts.steal };
    let ops = ops_for(&cfg);
    let mut session = CttSession::from_pairs(&[], &DcartConfig::default(), &exec, batch_size, 0)
        .map_err(|e| format!("determinism session: {e}"))?;
    struct Silent;
    impl dcart::CttConsumer for Silent {}
    for chunk in ops.chunks(batch_size) {
        session.execute_batch(chunk, &mut Silent).map_err(|e| format!("determinism exec: {e}"))?;
    }
    let repro_answer = session.answer_digest();
    let (tree, _, _) = session.finish().map_err(|e| format!("determinism finish: {e}"))?;
    let repro_tree = dcart::tree_digest(&tree);

    Ok(DeterminismCell {
        ops: ops_count,
        batch_size,
        digests_match: report.answer_digest == repro_answer && report.tree_digest == repro_tree,
        server_answer_digest: format!("{:#018x}", report.answer_digest),
        repro_answer_digest: format!("{repro_answer:#018x}"),
        server_tree_digest: format!("{:#018x}", report.tree_digest),
        repro_tree_digest: format!("{repro_tree:#018x}"),
    })
}

/// Runs all four cells and writes `BENCH_serve.json`. Returns `Err` if
/// any invariant cell failed (CI treats that as a red build).
pub fn run_bench(opts: &BenchOpts) -> Result<(), String> {
    println!("bench: sweep...");
    let mut sweep = Vec::new();
    for qps in [5_000u64, 20_000, 80_000] {
        let cell = sweep_cell(opts, qps)?;
        println!(
            "  qps {qps}: acked {} p50 {:.0}us p99 {:.0}us",
            cell.load.acked, cell.load.p50_us, cell.load.p99_us
        );
        sweep.push(cell);
    }
    println!("bench: overload...");
    let overload = overload_cell(opts)?;
    println!(
        "  offered {} acked {} rejected {} p99 {:.0}us (bound {:.0}us)",
        overload.load.offered,
        overload.load.acked,
        overload.load.rejected_total(),
        overload.load.p99_us,
        overload.p99_bound_us
    );
    println!("bench: chaos...");
    let chaos = chaos_cell(opts)?;
    println!(
        "  acked inserts {} missing after recovery {} ({})",
        chaos.acked_inserts, chaos.missing_after_recovery, chaos.verdict
    );
    println!("bench: determinism...");
    let determinism = determinism_cell(opts)?;
    println!(
        "  server {} repro {} match {}",
        determinism.server_answer_digest,
        determinism.repro_answer_digest,
        determinism.digests_match
    );

    let ok = chaos.missing_after_recovery == 0
        && determinism.digests_match
        && overload.rejections_rose
        && overload.p99_bounded
        && chaos.acked_inserts > 0;
    let bench = ServeBench {
        schema: "dcart-serve-bench-v1",
        seed: opts.seed,
        sou_threads: opts.sou_threads,
        steal: opts.steal,
        sweep,
        overload,
        chaos,
        determinism,
    };
    write_json(&opts.out, &bench)?;
    println!("bench: wrote {}", opts.out.display());
    if ok {
        Ok(())
    } else {
        Err("bench invariants failed (see BENCH_serve.json)".to_string())
    }
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(path, json.as_bytes()).map_err(|e| format!("write {path:?}: {e}"))
}
