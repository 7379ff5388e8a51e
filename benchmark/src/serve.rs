//! The online workloads: an in-process `dcart-server` on a loopback port,
//! driven by closed-loop clients that speak the wire protocol over TCP.
//!
//! Closed loop: each of the [`CONNECTIONS`] clients keeps [`IN_FLIGHT`]
//! requests outstanding and sends the next only when an answer arrives, so
//! a slower server is offered less load. The clients share the process (and
//! its two cores) with the server; CPU per operation includes them.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcart::durable::encode_ops;
use dcart::{
    read_checkpoint, tree_digest, write_checkpoint, CrashInjector, CttSession, ExecOpts,
    PersistStats, TraverseMode,
};
use dcart_art::{Art, Key};
use dcart_engine::time::Clock;
use dcart_engine::WalWriter;
use dcart_server::{
    decode_request, decode_response, encode_request, encode_response, read_frame, serve_seeded,
    write_frame, Admission, AdmissionConfig, CoreReport, Request, RequestKind, Response,
    ServeHandle, ServerConfig, ServerCore, ServerShared, ServerStats, Status,
};
use dcart_workloads::{Op, OpKind};

use crate::metrics::{Outcome, SETUPS};
use crate::procfs;
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use crate::window::{self, Sampler, Window};

/// Client connections, one thread each. Keys are partitioned among them
/// (rank mod `CONNECTIONS`), so each key has one writer and that client's
/// model of it is exact.
pub const CONNECTIONS: usize = 2;
/// Requests each client keeps outstanding: 256 in total, above the 64-op
/// flush watermark and below the 1024-slot admission queue.
pub const IN_FLIGHT: usize = 128;
/// Deadline budget of every request. Generous, so that a checkpoint stall
/// delays requests and does not expire them: no operation fails.
const BUDGET_NS: u64 = 5_000_000_000;
/// Milliseconds between runs of the host-speed probe while measuring (the
/// measuring thread is otherwise asleep; a run takes about 2.5 ms).
const PROBE_EVERY_MS: u64 = 50;
/// Iterations of each in-memory micro-measurement of the traced run.
const CODEC_ROUNDS: usize = 200_000;
/// Batches pushed through the in-process pipeline and WAL probes.
const PIPELINE_ROUNDS: usize = 200;

/// Model states of a key besides a value (values are request numbers and
/// preload ranks, far below these).
const ABSENT: u64 = u64::MAX;
/// A write to the key was not acknowledged, so its state is not known.
const UNKNOWN: u64 = u64::MAX - 1;

/// What distinguishes the two online workloads.
pub struct ServeSpec {
    durable: bool,
    /// Keys loaded before the server starts: ranks `0..preload`.
    preload: usize,
    /// Ranks the clients draw from, uniformly.
    ranks: usize,
    /// Acknowledgements discarded before measuring starts.
    warm_acks: u64,
    /// Acknowledgements that make one window of the measured phase.
    window_acks: u64,
    /// What a host-speed probe run takes, in nanoseconds, on the measuring
    /// thread while this workload has the quiet sandbox's two cores busy
    /// (median over a 150 s run).
    reference_probe_ns: f64,
}

/// The spec of online workload `name` (`scale` divides its sizes).
pub fn spec(name: &str, scale: usize) -> Option<ServeSpec> {
    // A durable window is two checkpoint cycles of 64 batches of 64, so
    // that every window holds the same number of stalls; its warm-up is one.
    let (durable, warm_acks, window_acks, reference_probe_ns) = match name {
        "serve-volatile" => (false, 100_000, 100_000, 3_800_000.0),
        "serve-durable" => (true, 64 * 64 + 2 * IN_FLIGHT as u64, 2 * 64 * 64, 3_200_000.0),
        _ => return None,
    };
    Some(ServeSpec {
        durable,
        preload: 100_000 / scale,
        ranks: 200_000 / scale,
        warm_acks: warm_acks / scale as u64,
        window_acks: (window_acks / scale as u64).max(1024),
        reference_probe_ns,
    })
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The key of popularity rank `rank`: a bijection of `seed`-shifted ranks,
/// so keys are distinct and spread over all 16 combining buckets.
fn key_of(seed: u64, rank: u64) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(rank))
}

fn preload_pairs(spec: &ServeSpec, seed: u64) -> Vec<(Key, u64)> {
    (0..spec.preload as u64).map(|r| (Key::from_u64(key_of(seed, r)), r)).collect()
}

/// One client's request stream and its model of the keys it owns.
struct Generator {
    seed: u64,
    conn: u64,
    state: u64,
    /// Ranks per connection.
    span: u64,
    /// `model[i]` is the state of rank `i * CONNECTIONS + conn`.
    model: Vec<u64>,
    issued: u64,
}

impl Generator {
    fn new(spec: &ServeSpec, seed: u64, conn: usize) -> Self {
        let span = (spec.ranks / CONNECTIONS) as u64;
        let rank_of = |i: u64| i * CONNECTIONS as u64 + conn as u64;
        let model =
            (0..span).map(|i| if rank_of(i) < spec.preload as u64 { rank_of(i) } else { ABSENT });
        Generator {
            seed,
            conn: conn as u64,
            state: splitmix64(seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)),
            span,
            model: model.collect(),
            issued: 0,
        }
    }

    /// The next request (50 % get, 45 % insert, 5 % remove, uniform over
    /// this connection's ranks), the model slot of its key, and the answer
    /// the server owes: requests of one connection execute in the order
    /// sent, so the model is advanced here.
    fn next(&mut self, req_id: u64) -> (Request, usize, u64) {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let draw = splitmix64(self.state);
        let slot = ((draw >> 8) % self.span) as usize;
        let key = key_of(self.seed, slot as u64 * CONNECTIONS as u64 + self.conn);
        self.issued += 1;
        let before = self.model[slot];
        let kind = match draw % 100 {
            0..=49 => RequestKind::Get,
            50..=94 => {
                self.model[slot] = self.issued;
                RequestKind::Insert
            }
            _ => {
                self.model[slot] = ABSENT;
                RequestKind::Remove
            }
        };
        let req = Request { req_id, kind, budget_ns: BUDGET_NS, key, value: self.issued };
        (req, slot, before)
    }
}

const WARM: u8 = 0;
/// Measuring: answers are counted.
const MEASURE: u8 = 1;
/// Traced run: answers are counted and their latencies kept.
const TRACE_PLAIN: u8 = 2;
/// Traced run: as `TRACE_PLAIN`, and each request is a span.
const TRACE_SPANS: u8 = 3;
const DRAIN: u8 = 4;

/// What the driving thread and the clients share.
struct LoadShared {
    phase: AtomicU8,
    /// OK answers so far, all clients.
    acks: AtomicU64,
}

#[derive(Default)]
struct ClientResult {
    sent: u64,
    /// OK answers by the phase they arrived in.
    acked: [u64; 5],
    rejected: u64,
    errors: u64,
    unanswered: u64,
    /// OK answers whose value differs from the model's.
    mismatches: u64,
    max_in_flight: usize,
    /// Send-to-answer times of OK answers that arrived in a traced phase.
    latencies_ns: Vec<u64>,
    /// `(req_id, start, end)` in tracer time, while `TRACE_SPANS`.
    spans: Vec<(u64, u64, u64)>,
    model: Vec<u64>,
}

struct InFlight {
    req_id: u64,
    sent_at: Instant,
    model_slot: usize,
    expected: u64,
    is_write: bool,
}

/// One closed-loop client: fills its window, then reads every answer that
/// has arrived and refills the window with one write.
fn client(
    addr: SocketAddr,
    mut gen: Generator,
    shared: &LoadShared,
    origin: Instant,
) -> std::io::Result<ClientResult> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut res = ClientResult::default();
    let mut window: Vec<Option<InFlight>> = (0..IN_FLIGHT).map(|_| None).collect();
    let mut free: Vec<usize> = (0..IN_FLIGHT).rev().collect();
    let mut out: Vec<u8> = Vec::with_capacity(IN_FLIGHT * 64);
    let mut serial = 0u64;
    loop {
        if shared.phase.load(Ordering::Relaxed) != DRAIN {
            while let Some(slot) = free.pop() {
                serial += 1;
                let req_id = serial * IN_FLIGHT as u64 + slot as u64;
                let (req, model_slot, expected) = gen.next(req_id);
                out.extend_from_slice(&encode_request(&req));
                window[slot] = Some(InFlight {
                    req_id,
                    sent_at: Instant::now(),
                    model_slot,
                    expected,
                    is_write: req.kind.is_write(),
                });
                res.sent += 1;
            }
            res.max_in_flight = res.max_in_flight.max(IN_FLIGHT - free.len());
            if !out.is_empty() {
                stream.write_all(&out)?;
                out.clear();
            }
        }
        if free.len() == IN_FLIGHT {
            break;
        }
        // Block for one answer, then take the ones already buffered.
        loop {
            let Ok(Some(body)) = read_frame(&mut reader) else {
                res.unanswered = (IN_FLIGHT - free.len()) as u64;
                res.model = gen.model;
                return Ok(res);
            };
            let now = Instant::now();
            let resp = decode_response(&body).ok();
            let slot = resp.as_ref().map_or(0, |r| (r.req_id % IN_FLIGHT as u64) as usize);
            let sent =
                window[slot].take_if(|s| resp.as_ref().is_some_and(|r| r.req_id == s.req_id));
            let (Some(resp), Some(sent)) = (resp, sent) else {
                res.errors += 1;
                continue;
            };
            free.push(slot);
            match resp.status {
                Status::Ok => {
                    let phase = shared.phase.load(Ordering::Relaxed);
                    res.acked[phase as usize] += 1;
                    shared.acks.fetch_add(1, Ordering::Relaxed);
                    let want = match sent.expected {
                        UNKNOWN => resp.value,
                        ABSENT => None,
                        v => Some(v),
                    };
                    res.mismatches += u64::from(resp.value != want);
                    if phase == TRACE_PLAIN || phase == TRACE_SPANS {
                        res.latencies_ns.push((now - sent.sent_at).as_nanos() as u64);
                    }
                    if phase == TRACE_SPANS {
                        let at = |t: Instant| (t - origin).as_nanos() as u64;
                        res.spans.push((sent.req_id, at(sent.sent_at), at(now)));
                    }
                }
                Status::Rejected | Status::Error => {
                    if resp.status == Status::Rejected {
                        res.rejected += 1;
                    } else {
                        res.errors += 1;
                    }
                    if sent.is_write {
                        gen.model[sent.model_slot] = UNKNOWN;
                    }
                }
            }
            if reader.buffer().is_empty() {
                break;
            }
        }
    }
    res.model = gen.model;
    Ok(res)
}

/// A fresh directory under the benchmark's `out/`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = crate::out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn server_config(data_dir: Option<&Path>) -> ServerConfig {
    let mut config =
        ServerConfig { data_dir: data_dir.map(Path::to_path_buf), ..Default::default() };
    config.admission.max_budget_ns = BUDGET_NS;
    config
}

/// A running server with its clients past warm-up.
struct Running {
    handle: ServeHandle,
    clients: Vec<JoinHandle<std::io::Result<ClientResult>>>,
    shared: Arc<LoadShared>,
    dir: Option<ScratchDir>,
}

/// Everything before the first measured request: preload, open the server,
/// connect, and discard the first `warm_acks` answers.
fn start(spec: &ServeSpec, seed: u64, tr: &mut Tracer) -> Running {
    let dir = spec.durable.then(|| ScratchDir::new("data"));
    let pairs = tr.span("workloads.keygen", 0, |_| preload_pairs(spec, seed));
    let config = server_config(dir.as_ref().map(|d| d.0.as_path()));
    let handle = tr
        .span("server.serve_seeded", 0, |_| {
            serve_seeded(config, "127.0.0.1:0", Arc::new(WallClock(Instant::now())), &pairs)
        })
        .expect("server opens on a loopback port");
    let shared = Arc::new(LoadShared { phase: AtomicU8::new(WARM), acks: AtomicU64::new(0) });
    let origin = tr.origin();
    let addr = handle.local_addr();
    let clients = (0..CONNECTIONS)
        .map(|conn| {
            let gen = Generator::new(spec, seed, conn);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || client(addr, gen, &shared, origin))
        })
        .collect();
    tr.span("net.warm_up", 0, |_| {
        while shared.acks.load(Ordering::Relaxed) < spec.warm_acks {
            assert!(!handle.shared().is_dead(), "server died during warm-up");
            std::thread::sleep(Duration::from_micros(500));
        }
    });
    Running { handle, clients, shared, dir }
}

/// Stops the clients (each waits for its outstanding answers), drains the
/// server, and returns what each saw.
fn stop(running: Running) -> (Vec<ClientResult>, ServerStats, CoreReport, Option<ScratchDir>) {
    running.shared.phase.store(DRAIN, Ordering::Relaxed);
    let results = running
        .clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("client socket"))
        .collect();
    let stats = running.handle.shared().stats();
    let report = running.handle.shutdown_and_join().expect("server drains");
    (results, stats, report, running.dir)
}

/// The keys and values the clients' models say the server holds, sorted by
/// key, and how many keys are in a state the models cannot vouch for.
fn modelled_pairs(spec: &ServeSpec, seed: u64, results: &[ClientResult]) -> (Vec<(Key, u64)>, u64) {
    let mut pairs = Vec::with_capacity(spec.ranks);
    let mut unknown = 0u64;
    for (conn, res) in results.iter().enumerate() {
        for (i, &v) in res.model.iter().enumerate() {
            match v {
                ABSENT => {}
                UNKNOWN => unknown += 1,
                v => pairs.push((Key::from_u64(key_of(seed, (i * CONNECTIONS + conn) as u64)), v)),
            }
        }
    }
    pairs.sort_unstable();
    (pairs, unknown)
}

/// Failures after the fact: the drained server's tree against the clients'
/// models, and for a durable server a restart from the data directory alone
/// that must hold every acknowledged write. Returns `(failures, restart
/// seconds)`.
fn audit(
    spec: &ServeSpec,
    seed: u64,
    results: &[ClientResult],
    report: &CoreReport,
    dir: Option<&ScratchDir>,
) -> (u64, f64) {
    let (pairs, unknown) = modelled_pairs(spec, seed, results);
    if unknown > 0 {
        // Every unacknowledged write was already counted as a failure.
        return (0, 0.0);
    }
    let mut failures = 0u64;
    let expected = Art::from_sorted(pairs.clone()).expect("fixed-width keys are prefix-free");
    failures += u64::from(tree_digest(&expected) != report.tree_digest);
    let Some(dir) = dir else { return (failures, 0.0) };

    let t = Instant::now();
    let shared = ServerShared::new(AdmissionConfig::default(), Arc::new(WallClock(Instant::now())));
    let core = ServerCore::open(server_config(Some(&dir.0)), shared, &[])
        .expect("drained data directory reopens");
    let restart_s = t.elapsed().as_secs_f64();
    failures += u64::from(core.answer_digest() != report.answer_digest);
    failures += u64::from(core.into_tree_digest().ok() != Some(report.tree_digest));
    let (_, _, on_disk) =
        read_checkpoint(&dir.0).expect("checkpoint reads").expect("drain leaves a checkpoint");
    failures += pairs.iter().filter(|(k, v)| on_disk.get(k) != Some(v)).count() as u64;
    failures += (on_disk.len() as u64).abs_diff(pairs.len() as u64);
    (failures, restart_s)
}

fn client_failures(results: &[ClientResult]) -> u64 {
    results.iter().map(|r| r.rejected + r.errors + r.unanswered + r.mismatches).sum()
}

/// The end-to-end run: tracing off, `seconds` of closed-loop traffic.
pub fn run_end_to_end(spec: &ServeSpec, seed: u64, seconds: u64) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut running = None;
    for _ in 0..SETUPS {
        if let Some(previous) = running.take() {
            stop(previous);
        }
        let t = Instant::now();
        running = Some(start(spec, seed, &mut tr));
        setups.push(t.elapsed().as_secs_f64());
    }
    let running = running.expect("SETUPS > 0");

    // Windows close on acknowledgement counts, not on the clock: each then
    // holds the same work (and, when durable, the same number of checkpoint
    // stalls), so that window rates are comparable.
    let shared = &running.shared;
    let window_limit = Duration::from_secs(seconds);
    let mut windows: Vec<Window> = Vec::new();
    let t0 = Instant::now();
    let mut sampler = Sampler::start();
    let mut opened_at = shared.acks.load(Ordering::Relaxed);
    shared.phase.store(MEASURE, Ordering::Relaxed);
    let mut ticks = 0u64;
    // At least one window, but not for ever if the answers stop coming.
    let give_up = window_limit + Duration::from_secs(30);
    while t0.elapsed() < window_limit || (windows.is_empty() && t0.elapsed() < give_up) {
        std::thread::sleep(Duration::from_millis(1));
        if ticks.is_multiple_of(PROBE_EVERY_MS) {
            sampler.probe();
        }
        ticks += 1;
        assert!(!running.handle.shared().is_dead(), "server died while measuring");
        let acks = shared.acks.load(Ordering::Relaxed);
        if acks - opened_at >= spec.window_acks {
            windows.push(sampler.close(acks - opened_at));
            ticks = 0;
            opened_at = acks;
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    let (results, stats, report, dir) = stop(running);
    let (audit_failures, _) = audit(spec, seed, &results, &report, dir.as_ref());
    let in_flight = results.iter().map(|r| r.max_in_flight).max().unwrap_or(0);
    assert!(in_flight <= IN_FLIGHT, "a client exceeded its window: {in_flight}");
    let mut metrics = vec![("setup_s", median(&setups))];
    metrics.extend(window::summarize(&windows, spec.reference_probe_ns));
    metrics.push(("peak_rss_mb", peak_rss_mb));
    Outcome {
        attempted: results.iter().map(|r| r.sent).sum(),
        failed: client_failures(&results) + audit_failures,
        notes: vec![
            ("answer_digest", format!("\"{:#018x}\"", report.answer_digest)),
            ("checkpoints", stats.core.persist.checkpoints.to_string()),
            ("windows", window::windows_json(&windows)),
        ],
        metrics,
    }
}

/// Nanoseconds per call of `f`, over `rounds` calls.
fn ns_per_call(rounds: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..rounds {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / rounds as f64
}

/// server::wire — each codec function and the framed I/O by themselves.
fn probe_wire(reqs: &[Request], tr: &mut Tracer, m: &mut Vec<(&'static str, f64)>) {
    use std::hint::black_box;
    let resps: Vec<Response> = reqs
        .iter()
        .map(|r| Response::ok(r.req_id, (r.value % 2 == 0).then_some(r.value)))
        .collect();
    let req_frames: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
    let resp_frames: Vec<Vec<u8>> = resps.iter().map(encode_response).collect();
    // A frame is magic (8) + length (4) + body + checksum (8).
    let body = |f: &[u8]| f[12..f.len() - 8].to_vec();
    let req_bodies: Vec<Vec<u8>> = req_frames.iter().map(|f| body(f)).collect();
    let resp_bodies: Vec<Vec<u8>> = resp_frames.iter().map(|f| body(f)).collect();
    let n = reqs.len();
    let mut time = |name: &'static str, f: &mut dyn FnMut(usize)| {
        let ns = tr.span(name, 0, |_| ns_per_call(CODEC_ROUNDS, |i| f(i % n)));
        m.push((name, ns));
    };
    time("wire.encode_req_ns", &mut |i| drop(black_box(encode_request(&reqs[i]))));
    time("wire.decode_req_ns", &mut |i| drop(black_box(decode_request(&req_bodies[i]))));
    time("wire.encode_resp_ns", &mut |i| drop(black_box(encode_response(&resps[i]))));
    time("wire.decode_resp_ns", &mut |i| drop(black_box(decode_response(&resp_bodies[i]))));
    let mut pipe: Vec<u8> = Vec::with_capacity(128);
    time("wire.frame_io_ns", &mut |i| {
        pipe.clear();
        write_frame(&mut pipe, &req_frames[i]).expect("memory write");
        drop(black_box(read_frame(&mut pipe.as_slice())));
    });
}

/// server::admission — one admit and its release.
fn probe_admission(tr: &mut Tracer, m: &mut Vec<(&'static str, f64)>) {
    let mut admission = Admission::new(AdmissionConfig::default());
    let ns = tr.span("admission.admit_release", 0, |_| {
        ns_per_call(CODEC_ROUNDS, |i| {
            let now = i as u64;
            let _ = std::hint::black_box(admission.admit(RequestKind::Get, now, now + BUDGET_NS));
            admission.release(1);
        })
    });
    m.push(("admission.admit_release_ns", ns));
}

/// server::core_loop — 64 requests submitted and flushed as one batch,
/// without sockets or threads. Returns the mean `(submit ns, flush µs)`.
fn probe_pipeline(
    pairs: &[(Key, u64)],
    reqs: &[Request],
    data_dir: Option<&Path>,
    tr: &mut Tracer,
) -> (f64, f64) {
    // Checkpoints are measured by themselves; keep them out of the flush.
    let config = ServerConfig { checkpoint_every: u64::MAX, ..server_config(data_dir) };
    let fill = config.batch_size;
    let shared = ServerShared::new(config.admission, Arc::new(WallClock(Instant::now())));
    let mut core = ServerCore::open(config, Arc::clone(&shared), pairs).expect("core opens");
    let (tx, rx) = mpsc::channel();
    for (round, batch) in reqs.chunks_exact(fill).take(PIPELINE_ROUNDS).enumerate() {
        tr.span("core_loop.submit", round as u64, |_| {
            for req in batch {
                assert!(shared.submit(*req, &tx).is_none(), "probe request refused");
            }
        });
        tr.span("core_loop.flush_now", round as u64, |_| core.flush_now());
        assert_eq!(rx.try_iter().filter(|r| r.status == Status::Ok).count(), fill);
    }
    let rounds = tr.durations_ns("core_loop.flush_now").len().max(1) as f64;
    (
        tr.total_s("core_loop.submit") * 1e9 / (rounds * fill as f64),
        tr.total_s("core_loop.flush_now") * 1e6 / rounds,
    )
}

/// engine::wal — append, commit with and without fsync, bytes per op.
fn probe_wal(reqs: &[Request], dir: &Path, tr: &mut Tracer, m: &mut Vec<(&'static str, f64)>) {
    let ops: Vec<Op> = reqs
        .iter()
        .take(64)
        .map(|r| Op { kind: OpKind::Insert, key: Key::from_u64(r.key), value: r.value })
        .collect();
    let payload = encode_ops(&ops);
    let mut crash = CrashInjector::counting();
    let mut bytes = 0u64;
    for (sync, commit_span) in [(true, "wal.commit_sync"), (false, "wal.commit_nosync")] {
        let mut wal = WalWriter::create(&dir.join(commit_span), 64).expect("WAL file");
        let before = wal.len();
        for seq in 0..PIPELINE_ROUNDS as u64 {
            tr.span("wal.append_batch", seq, |_| wal.append_batch(seq, &payload, &mut crash))
                .expect("append");
            tr.span(commit_span, seq, |_| wal.commit(seq, seq, 64, sync, &mut crash))
                .expect("commit");
        }
        bytes = wal.len() - before;
    }
    let rounds = PIPELINE_ROUNDS as f64;
    m.push(("wal.append_us_per_batch", tr.total_s("wal.append_batch") * 1e6 / (2.0 * rounds)));
    m.push(("wal.commit_sync_us", tr.total_s("wal.commit_sync") * 1e6 / rounds));
    m.push(("wal.commit_nosync_us", tr.total_s("wal.commit_nosync") * 1e6 / rounds));
    m.push(("wal.bytes_per_op", bytes as f64 / (rounds * 64.0)));
    let encode_ns = tr.span("durable.encode_ops", 0, |_| {
        ns_per_call(CODEC_ROUNDS / 64, |_| drop(std::hint::black_box(encode_ops(&ops))))
    });
    m.push(("durable.encode_ops_ns_per_op", encode_ns / 64.0));
}

/// core::durable — what one checkpoint of the tree the run ended with
/// costs: merging the shards, then encoding and installing the snapshot.
/// Returns the median checkpoint in milliseconds.
fn probe_checkpoint(
    pairs: &[(Key, u64)],
    dir: &Path,
    tr: &mut Tracer,
    m: &mut Vec<(&'static str, f64)>,
) -> f64 {
    let config = ServerConfig::default();
    let opts = ExecOpts { threads: config.threads, mode: TraverseMode::LevelWise, steal: false };
    let session = CttSession::from_pairs(pairs, &config.dcart, &opts, config.batch_size, 0)
        .expect("fixed-width keys are prefix-free");
    let mut persist = PersistStats::default();
    let mut crash = CrashInjector::counting();
    let (mut merge_ms, mut total_ms) = (Vec::new(), Vec::new());
    for round in 0..5u64 {
        let t = Instant::now();
        let tree = tr.span("durable.tree_merge", round, |_| session.tree()).expect("shards merge");
        merge_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.span("durable.write_checkpoint", round, |_| {
            write_checkpoint(dir, round, 0, &tree, &mut crash, &mut persist)
        })
        .expect("checkpoint installs");
        total_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push(("durable.tree_merge_ms", median(&merge_ms)));
    m.push(("durable.checkpoint_ms", median(&total_ms)));
    m.push(("durable.checkpoint_mb", persist.mean_checkpoint_bytes() / 1e6));
    median(&total_ms)
}

/// server::net — round trip with one request outstanding: linger and the
/// thread wake-ups, no queueing.
fn probe_idle_rtt(spec: &ServeSpec, seed: u64, reqs: &[Request], tr: &mut Tracer) -> f64 {
    let dir = spec.durable.then(|| ScratchDir::new("idle"));
    let config = server_config(dir.as_ref().map(|d| d.0.as_path()));
    let clock = Arc::new(WallClock(Instant::now()));
    let handle = serve_seeded(config, "127.0.0.1:0", clock, &preload_pairs(spec, seed))
        .expect("server opens on a loopback port");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    for req in reqs.iter().take(PIPELINE_ROUNDS) {
        tr.span("net.idle_round_trip", req.req_id, |_| {
            write_frame(&mut stream, &encode_request(req)).expect("request written");
            read_frame(&mut stream).expect("answer read")
        });
    }
    drop(stream);
    handle.shutdown_and_join().expect("server drains");
    let mut rtt = tr.durations_ns("net.idle_round_trip");
    rtt.sort_unstable();
    percentile_sorted(&rtt, 50.0) as f64 / 1e3
}

fn value_of(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

fn persist_delta(after: &PersistStats, before: &PersistStats) -> PersistStats {
    PersistStats {
        wal_bytes: after.wal_bytes - before.wal_bytes,
        wal_batches: after.wal_batches - before.wal_batches,
        wal_commits: after.wal_commits - before.wal_commits,
        payload_bytes: after.payload_bytes - before.payload_bytes,
        checkpoint_bytes: after.checkpoint_bytes - before.checkpoint_bytes,
        checkpoints: after.checkpoints - before.checkpoints,
        ..PersistStats::default()
    }
}

/// The traced run: a shorter measured window, half of it with one span per
/// request, then each layer a request crosses by itself.
pub fn run_traced(spec: &ServeSpec, seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let running = tr.span("setup", 0, |tr| start(spec, seed, tr));
    let half = Duration::from_millis(seconds * 1000 / 8).max(Duration::from_millis(250));
    let before = running.handle.shared().stats();
    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let (plain_s, spanned_s) = tr.span("net.window", 0, |_| {
        running.shared.phase.store(TRACE_PLAIN, Ordering::Relaxed);
        std::thread::sleep(half);
        let plain_s = t0.elapsed().as_secs_f64();
        running.shared.phase.store(TRACE_SPANS, Ordering::Relaxed);
        std::thread::sleep(half);
        running.shared.phase.store(DRAIN, Ordering::Relaxed);
        (plain_s, t0.elapsed().as_secs_f64() - plain_s)
    });
    let cpu_s = procfs::cpu_s() - cpu0;
    let after = running.handle.shared().stats();
    let (results, _, report, dir) = stop(running);
    let (audit_failures, restart_s) = audit(spec, seed, &results, &report, dir.as_ref());
    drop(dir);
    for res in &results {
        for &(req_id, start_ns, end_ns) in &res.spans {
            tr.record("net.request", req_id, start_ns, end_ns);
        }
    }

    let window_s = plain_s + spanned_s;
    let acked = |phase: u8| results.iter().map(|r| r.acked[phase as usize]).sum::<u64>() as f64;
    let ops = acked(TRACE_PLAIN) + acked(TRACE_SPANS);
    let ops_per_s = ops / window_s;
    let mut latencies: Vec<u64> =
        results.iter().flat_map(|r| r.latencies_ns.iter().copied()).collect();
    latencies.sort_unstable();
    let batches = (after.core.batches - before.core.batches) as f64;
    let admitted = (after.admission.accepted - before.admission.accepted) as f64;
    let refused: u64 = results.iter().map(|r| r.rejected).sum();
    let persist = persist_delta(&after.core.persist, &before.core.persist);
    m.push(("workloads.keygen_s", tr.total_s("workloads.keygen")));
    m.push(("serve.traced_ops_per_s", ops_per_s));
    m.push(("serve.cpu_us_per_op", cpu_s * 1e6 / ops.max(1.0)));
    m.push(("net.request_p50_us", percentile_sorted(&latencies, 50.0) as f64 / 1e3));
    m.push(("net.request_p99_us", percentile_sorted(&latencies, 99.0) as f64 / 1e3));
    m.push(("core_loop.mean_batch_fill", ops / batches.max(1.0)));
    m.push(("admission.rejected_share", refused as f64 / (admitted + refused as f64).max(1.0)));
    m.push((
        "admission.expired_in_queue",
        (after.core.expired_in_queue - before.core.expired_in_queue) as f64,
    ));
    m.push((
        "trace.overhead_share",
        1.0 - (acked(TRACE_SPANS) / spanned_s) / (acked(TRACE_PLAIN) / plain_s).max(1.0),
    ));
    m.push(("durable.checkpoints", persist.checkpoints as f64));
    m.push(("durable.recover_ms", restart_s * 1e3));
    m.push(("persist.write_amplification", persist.write_amplification()));

    // The layers by themselves, on the tree the run ended with and on
    // requests from the same generator.
    let (pairs, _) = modelled_pairs(spec, seed, &results);
    m.push(("serve.tree_keys", pairs.len() as f64));
    let mut gen = Generator::new(spec, seed, 0);
    let reqs: Vec<Request> =
        (0..(PIPELINE_ROUNDS * 64) as u64).map(|i| gen.next(i + 1).0).collect();
    tr.span("probe", 0, |tr| {
        probe_wire(&reqs, tr, &mut m);
        probe_admission(tr, &mut m);
        let scratch = ScratchDir::new("probe");
        let (submit_ns, flush_us) =
            probe_pipeline(&pairs, &reqs, spec.durable.then_some(scratch.0.as_path()), tr);
        m.push(("core_loop.submit_ns", submit_ns));
        m.push(("core_loop.flush_us_per_batch", flush_us));
        let mut stall_s = 0.0;
        if spec.durable {
            probe_wal(&reqs, &scratch.0, tr, &mut m);
            let checkpoint_ms = probe_checkpoint(&pairs, &scratch.0, tr, &mut m);
            stall_s = persist.checkpoints as f64 * checkpoint_ms / 1e3;
            let wal_s = batches
                * (value_of(&m, "wal.append_us_per_batch") + value_of(&m, "wal.commit_sync_us"))
                / 1e6;
            m.push(("durable.checkpoint_time_share", stall_s / window_s));
            m.push(("wal.time_share", wal_s / window_s));
        }
        m.push(("net.idle_rtt_us", probe_idle_rtt(spec, seed, &reqs, tr)));

        // Where a request's share of the wall clock goes: the server's
        // stages in this process, then the framing and the client's codec.
        let per_op_ns = 1e9 / ops_per_s.max(1.0);
        let fill = ServerConfig::default().batch_size as f64;
        let pipeline_ns = value_of(&m, "wire.decode_req_ns")
            + submit_ns
            + flush_us * 1e3 / fill
            + value_of(&m, "wire.encode_resp_ns")
            + stall_s * 1e9 / ops.max(1.0);
        let edges_ns = 2.0 * value_of(&m, "wire.frame_io_ns")
            + value_of(&m, "wire.encode_req_ns")
            + value_of(&m, "wire.decode_resp_ns");
        m.push(("net.loopback_share", 1.0 - pipeline_ns / per_op_ns));
        m.push(("serve.account_gap_share", 1.0 - (pipeline_ns + edges_ns) / per_op_ns));
    });

    Outcome {
        attempted: results.iter().map(|r| r.sent).sum(),
        failed: client_failures(&results) + audit_failures,
        notes: vec![("answer_digest", format!("\"{:#018x}\"", report.answer_digest))],
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_and_follow_the_seed() {
        let mut keys: Vec<u64> = (0..10_000).map(|r| key_of(1, r)).collect();
        assert_ne!(keys[..4], [key_of(2, 0), key_of(2, 1), key_of(2, 2), key_of(2, 3)]);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn generator_repeats_for_a_seed_and_models_what_it_sends() {
        let spec = spec("serve-volatile", 50).expect("known workload");
        let mut a = Generator::new(&spec, 9, 1);
        let mut b = Generator::new(&spec, 9, 1);
        let mut kinds = [0u32; 3];
        for i in 0..20_000u64 {
            let (req, slot, before) = a.next(i);
            assert_eq!((req, slot, before), b.next(i));
            // Rank parity picks the owning connection.
            assert_eq!(req.key, key_of(9, slot as u64 * 2 + 1));
            match req.kind {
                RequestKind::Get => {
                    kinds[0] += 1;
                    assert_eq!(a.model[slot], before);
                }
                RequestKind::Insert => {
                    kinds[1] += 1;
                    assert_eq!(a.model[slot], req.value);
                }
                _ => {
                    kinds[2] += 1;
                    assert_eq!(a.model[slot], ABSENT);
                }
            }
        }
        assert!((9_500..10_500).contains(&kinds[0]), "{kinds:?}");
        assert!((8_500..9_500).contains(&kinds[1]), "{kinds:?}");
        assert!((700..1_300).contains(&kinds[2]), "{kinds:?}");
        assert_ne!(Generator::new(&spec, 9, 0).next(0).0, Generator::new(&spec, 9, 1).next(0).0);
    }

    #[test]
    fn closed_loop_fills_its_window_and_never_exceeds_it() {
        for name in ["serve-volatile", "serve-durable"] {
            let spec = spec(name, 50).expect("known workload");
            let mut tr = Tracer::new(false);
            let running = start(&spec, 3, &mut tr);
            running.shared.phase.store(MEASURE, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(300));
            let (results, stats, report, dir) = stop(running);
            for res in &results {
                assert_eq!(res.max_in_flight, IN_FLIGHT, "{name}");
                assert!(res.acked[MEASURE as usize] > 0, "{name}");
                assert_eq!(res.sent, res.acked.iter().sum::<u64>(), "{name}");
            }
            assert_eq!(client_failures(&results), 0, "{name}");
            assert!(stats.queue_depth <= (CONNECTIONS * IN_FLIGHT) as u64, "{name}");
            assert_eq!(audit(&spec, 3, &results, &report, dir.as_ref()).0, 0, "{name}");
        }
    }

    #[test]
    fn audit_notices_a_lost_write() {
        let spec = spec("serve-durable", 50).expect("known workload");
        let mut tr = Tracer::new(false);
        let running = start(&spec, 4, &mut tr);
        let (mut results, _, report, dir) = stop(running);
        // Claim an acknowledged insert the server never saw.
        let slot = results[0].model.iter().position(|&v| v == ABSENT).expect("an absent key");
        results[0].model[slot] = 12_345;
        assert!(audit(&spec, 4, &results, &report, dir.as_ref()).0 >= 2);
    }
}
