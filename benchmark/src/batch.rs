//! The offline workloads: one single-threaded `CttSession` fed fixed-size
//! batches of a generated operation stream, replayed until time is up.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::{Duration, Instant};

use dcart::pcu::{combine_batch_into, CombinedBatch};
use dcart::{CttConsumer, CttOpEvent, CttSession, DcartAccel, DcartConfig, ExecOpts, TraverseMode};
use dcart_art::{Art, Key, LevelWiseScratch, NoopTracer};
use dcart_baselines::{execute_with_traces, CpuBaseline, CpuConfig, IndexEngine, RunConfig};
use dcart_workloads::{generate_ops, KeySet, Mix, Op, OpKind, OpStreamConfig, Workload};

use crate::metrics::{Outcome, SETUPS};
use crate::procfs;
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use crate::window::{self, Sampler, Window};

/// Operations per executor batch.
const BATCH: usize = 4096;
/// Leading batches whose every answer is checked against the model, and
/// after which the session's answer digest is reported. Every run executes
/// at least this many, so the digest is a function of the seed alone.
const CHECK_BATCHES: usize = 64;
/// Times the host-speed probe runs in each window of the measured phase.
const PROBES_PER_WINDOW: usize = 8;
/// Operations the simulated accelerator runs in the traced run.
const ACCEL_OPS: usize = 200_000;

/// What distinguishes the two offline workloads.
pub struct BatchSpec {
    keyset: Workload,
    keys: usize,
    stream_ops: usize,
    theta: f64,
    mix: Mix,
    /// Batches that make one window of the measured phase (about half a
    /// second of work).
    window_batches: usize,
    /// What a host-speed probe run takes, in nanoseconds, between batches
    /// of this workload on the quiet sandbox (median over a 150 s run).
    reference_probe_ns: f64,
    /// Batches of the stream that make one pass of the traced run, whose
    /// work is fixed so that its counts repeat exactly.
    trace_batches: usize,
}

/// The spec of offline workload `name` (`scale` divides its sizes).
pub fn spec(name: &str, scale: usize) -> Option<BatchSpec> {
    let spec = match name {
        "batch-skew-rw" => BatchSpec {
            keyset: Workload::Ipgeo,
            keys: 1_000_000,
            stream_ops: 2_000_000,
            theta: 0.99,
            mix: Mix::C,
            window_batches: 128,
            reference_probe_ns: 2_550_000.0,
            trace_batches: 256,
        },
        "batch-uniform-scan" => BatchSpec {
            keyset: Workload::RandomSparse,
            keys: 1_000_000,
            stream_ops: 1_000_000,
            theta: 0.0001,
            mix: Mix::B.with_scans(0.01),
            window_batches: 32,
            reference_probe_ns: 2_750_000.0,
            trace_batches: 64,
        },
        _ => return None,
    };
    Some(BatchSpec {
        keys: spec.keys / scale,
        stream_ops: spec.stream_ops / scale,
        trace_batches: (spec.trace_batches / scale).max(2),
        ..spec
    })
}

/// The serving layer's consumer shape: keeps each operation's concrete
/// answer, indexed by its position in the batch.
struct Answers {
    values: Vec<Option<u64>>,
}

impl Answers {
    fn reset(&mut self, len: usize) {
        self.values.clear();
        self.values.resize(len, None);
    }
}

impl CttConsumer for Answers {
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        self.values[ev.op_index as usize] = ev.value;
    }
}

struct Discard;
impl CttConsumer for Discard {}

const SINGLE_THREAD: ExecOpts =
    ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false };

fn initial_pairs(keys: &KeySet) -> Vec<(Key, u64)> {
    keys.keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect()
}

fn config_for(keys: &KeySet) -> DcartConfig {
    // An explicit never-split threshold: the default defers to a process
    // global, which a benchmark must not depend on.
    DcartConfig { split_threshold: Some(1.0), ..DcartConfig::default() }
        .scaled_for_keys(keys.len())
        .with_auto_prefix_skip(keys)
}

struct Prepared {
    keys: KeySet,
    ops: Vec<Op>,
    cfg: DcartConfig,
    session: CttSession,
}

/// Everything before the first operation: keys, operation stream, loaded
/// session.
fn prepare(spec: &BatchSpec, seed: u64, tr: &mut Tracer) -> Prepared {
    let keys = tr.span("workloads.keygen", 0, |_| spec.keyset.generate(spec.keys, seed));
    let stream = OpStreamConfig { count: spec.stream_ops, mix: spec.mix, theta: spec.theta, seed };
    let ops = tr.span("workloads.opgen", 0, |_| generate_ops(&keys, &stream));
    let cfg = config_for(&keys);
    let session = tr.span("ctt.from_pairs", 0, |_| open_session(&keys, &cfg, &SINGLE_THREAD));
    Prepared { keys, ops, cfg, session }
}

fn open_session(keys: &KeySet, cfg: &DcartConfig, opts: &ExecOpts) -> CttSession {
    CttSession::from_pairs(&initial_pairs(keys), cfg, opts, BATCH, 0)
        .expect("generated key sets are prefix-free")
}

/// Replays `batches` on a `BTreeMap` and counts the answers in `recorded`
/// that differ: point operations in submission order, scans against the
/// state at the end of their batch (the executor defers them there).
fn model_mismatches<'a>(
    initial: Vec<(Key, u64)>,
    batches: impl Iterator<Item = &'a [Op]>,
    recorded: &[Vec<Option<u64>>],
) -> u64 {
    let mut model: BTreeMap<Key, u64> = initial.into_iter().collect();
    let mut mismatches = 0u64;
    for (batch, got) in batches.zip(recorded) {
        let mut expected: Vec<Option<u64>> = batch
            .iter()
            .map(|op| match op.kind {
                OpKind::Read => model.get(&op.key).copied(),
                OpKind::Update | OpKind::Insert => model.insert(op.key.clone(), op.value),
                OpKind::Remove => model.remove(&op.key),
                OpKind::Scan => None,
            })
            .collect();
        for (op, slot) in batch.iter().zip(&mut expected) {
            if op.kind == OpKind::Scan {
                let from = (Bound::Included(&op.key), Bound::Unbounded);
                *slot = Some(model.range::<Key, _>(from).take(op.value as usize).count() as u64);
            }
        }
        mismatches += expected.iter().zip(got).filter(|(e, g)| e != g).count() as u64;
        mismatches += expected.len().abs_diff(got.len()) as u64;
    }
    mismatches
}

/// The end-to-end run: tracing off, `seconds` of batches.
pub fn run_end_to_end(spec: &BatchSpec, seed: u64, seconds: u64) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // One instance alive at a time, so peak memory is that of one.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(spec, seed, &mut tr));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Prepared { keys, ops, mut session, .. } = prepared.expect("SETUPS > 0");

    let window_limit = Duration::from_secs(seconds);
    let mut answers = Answers { values: Vec::new() };
    let mut recorded: Vec<Vec<Option<u64>>> = Vec::with_capacity(CHECK_BATCHES);
    let mut windows: Vec<Window> = Vec::new();
    let mut window_batches = 0usize;
    let mut window_ops = 0u64;
    let mut digest = 0u64;
    let t0 = Instant::now();
    let mut sampler = Sampler::start();
    for batch in ops.chunks(BATCH).cycle() {
        if window_batches.is_multiple_of(spec.window_batches / PROBES_PER_WINDOW) {
            sampler.probe();
        }
        answers.reset(batch.len());
        session.execute_batch(batch, &mut answers).expect("generated streams never fail");
        window_batches += 1;
        window_ops += batch.len() as u64;
        if recorded.len() < CHECK_BATCHES {
            recorded.push(answers.values.clone());
            digest = session.answer_digest();
        }
        if window_batches == spec.window_batches {
            windows.push(sampler.close(window_ops));
            (window_batches, window_ops) = (0, 0);
            if recorded.len() == CHECK_BATCHES && t0.elapsed() >= window_limit {
                break;
            }
        }
    }
    // Read before the model is built: the checker's memory is not the
    // program's.
    let peak_rss_mb = procfs::peak_rss_mb();

    let failed = model_mismatches(initial_pairs(&keys), ops.chunks(BATCH).cycle(), &recorded);
    let mut metrics = vec![("setup_s", median(&setups))];
    metrics.extend(window::summarize(&windows, spec.reference_probe_ns));
    metrics.push(("peak_rss_mb", peak_rss_mb));
    Outcome {
        attempted: windows.iter().map(|w| w.ops).sum(),
        failed,
        notes: vec![
            ("answer_digest", format!("\"{digest:#018x}\"")),
            ("windows", window::windows_json(&windows)),
        ],
        metrics,
    }
}

/// Runs `slice` once through `session` in batches, returning the seconds
/// taken. With `span` set, each batch is a span of that name.
fn pass<C: CttConsumer>(
    session: &mut CttSession,
    slice: &[Op],
    consumer: &mut C,
    mut before_batch: impl FnMut(&mut C, usize),
    span: Option<&'static str>,
    tr: &mut Tracer,
) -> f64 {
    let t = Instant::now();
    for (i, batch) in slice.chunks(BATCH).enumerate() {
        before_batch(consumer, batch.len());
        match span {
            Some(name) => tr.span(name, i as u64, |_| session.execute_batch(batch, consumer)),
            None => session.execute_batch(batch, consumer),
        }
        .expect("generated streams never fail");
    }
    t.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: fixed work (so counts repeat exactly), each call into a
/// layer inside a span, then each layer's public functions on the same
/// batches by themselves.
pub fn run_traced(spec: &BatchSpec, seed: u64, tr: &mut Tracer) -> Outcome {
    let Prepared { keys, ops, cfg, mut session } =
        tr.span("setup", 0, |tr| prepare(spec, seed, tr));
    let slice = &ops[..ops.len().min(spec.trace_batches * BATCH)];
    let n = slice.len() as f64;
    let mut answers = Answers { values: Vec::new() };
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // core::ctt — four passes over the same slice in one session: cold with
    // spans, then steady without spans, with spans, and with a consumer
    // that keeps nothing.
    let (cold_s, plain_s, spanned_s, discard_s) = tr.span("ctt", 0, |tr| {
        let mut run = |span, tr: &mut Tracer| {
            pass(&mut session, slice, &mut answers, Answers::reset, span, tr)
        };
        let cold = run(Some("ctt.execute_batch.cold"), tr);
        let plain = run(None, tr);
        let spanned = run(Some("ctt.execute_batch"), tr);
        let discard = pass(&mut session, slice, &mut Discard, |_, _| (), None, tr);
        (cold, plain, spanned, discard)
    });
    let scans: Vec<Op> = slice.iter().filter(|o| o.kind == OpKind::Scan).cloned().collect();
    let scan_s = tr.span("ctt.scan_only", 0, |tr| {
        pass(&mut session, &scans, &mut Discard, |_, _| (), Some("ctt.execute_batch.scans"), tr)
    });
    let (_, stats, _) = session.finish().expect("shards merge");
    let mut steady_ns = tr.durations_ns("ctt.execute_batch");
    steady_ns.sort_unstable();
    m.push(("ctt.load_s", tr.total_s("ctt.from_pairs")));
    m.push(("ctt.execute_ns_per_op", discard_s * 1e9 / n));
    m.push(("ctt.consumer_ns_per_op", (plain_s - discard_s) * 1e9 / n));
    m.push(("ctt.batch_p50_us", percentile_sorted(&steady_ns, 50.0) as f64 / 1e3));
    m.push(("ctt.batch_p99_us", percentile_sorted(&steady_ns, 99.0) as f64 / 1e3));
    m.push(("ctt.scan_us_per_scan", ratio(scan_s * 1e6, scans.len() as f64)));
    m.push(("ctt.scan_time_share", if scans.is_empty() { 0.0 } else { scan_s / discard_s }));
    m.push((
        "ctt.lock_coalescing_ratio",
        ratio(stats.lock_groups as f64, stats.per_op_locks as f64),
    ));
    m.push(("trace.overhead_share", 1.0 - plain_s / spanned_s));
    let sc = stats.shortcut;
    m.push(("shortcut.hit_ratio", ratio(sc.hits as f64, (sc.hits + sc.misses) as f64)));
    m.push((
        "shortcut.hash_collisions_per_kop",
        stats.shortcut_hash_collisions as f64 * 1e3 / stats.ops as f64,
    ));
    m.push(("art.nodes_per_op", sc.nodes_visited as f64 / stats.ops as f64));
    m.push(("art.wave_sharing_ratio", ratio(sc.nodes_visited as f64, sc.ops_advanced as f64)));
    m.push(("workloads.keygen_s", tr.total_s("workloads.keygen")));
    m.push(("workloads.opgen_s", tr.total_s("workloads.opgen")));

    // core::pcu — Combine by itself on every batch of the slice.
    tr.span("pcu", 0, |tr| {
        let mut combined = CombinedBatch { buckets: Vec::new(), scanned: 0 };
        let mut per_bucket = vec![0u64; cfg.buckets()];
        for (i, batch) in slice.chunks(BATCH).enumerate() {
            tr.span("pcu.combine_batch_into", i as u64, |_| {
                combine_batch_into(&cfg, batch, &mut combined)
            });
            for (total, bucket) in per_bucket.iter_mut().zip(&combined.buckets) {
                *total += bucket.len() as u64;
            }
        }
        let fullest = per_bucket.iter().copied().max().unwrap_or(0);
        m.push(("pcu.combine_ns_per_op", tr.total_s("pcu.combine_batch_into") * 1e9 / n));
        m.push(("pcu.max_bucket_share", fullest as f64 / n));
    });

    // art — one unsharded tree of the same keys: each batch's read keys
    // located level-wise and one by one, and the slice's scans.
    tr.span("art", 0, |tr| {
        let mut art: Art<u64> = Art::new();
        tr.span("art.load_indexed", 0, |_| art.load_indexed(&keys.keys))
            .expect("generated key sets are prefix-free");
        let mut scratch = LevelWiseScratch::new();
        let mut read_keys: Vec<Key> = Vec::new();
        let (mut located, mut found) = (0u64, 0u64);
        for (i, batch) in slice.chunks(BATCH).enumerate() {
            read_keys.clear();
            read_keys
                .extend(batch.iter().filter(|o| o.kind == OpKind::Read).map(|o| o.key.clone()));
            located += read_keys.len() as u64;
            tr.span("art.locate_leaves_level_wise", i as u64, |_| {
                art.locate_leaves_level_wise(&read_keys, &mut scratch)
            });
            found += tr.span("art.get", i as u64, |_| {
                read_keys.iter().filter(|k| art.get(k).is_some()).count() as u64
            });
        }
        std::hint::black_box(found);
        let mut items = 0u64;
        let mut out = Vec::new();
        tr.span("art.scan_traced_into", 0, |_| {
            for op in &scans {
                art.scan_traced_into(
                    op.key.as_bytes(),
                    op.value as usize,
                    &mut NoopTracer,
                    &mut out,
                );
                items += out.len() as u64;
            }
        });
        m.push(("art.load_s", tr.total_s("art.load_indexed")));
        m.push((
            "art.levelwise_ns_per_key",
            ratio(tr.total_s("art.locate_leaves_level_wise") * 1e9, located as f64),
        ));
        m.push(("art.get_ns_per_key", ratio(tr.total_s("art.get") * 1e9, located as f64)));
        m.push((
            "art.scan_ns_per_item",
            ratio(tr.total_s("art.scan_traced_into") * 1e9, items as f64),
        ));
    });

    // baselines — the plain traced ART on the same cold slice (ROADMAP
    // item 1 compares the CTT executor with the tree it wraps).
    let art_s = tr.span("baselines.execute_with_traces", 0, |_| {
        let t = Instant::now();
        let mut visits = 0u64;
        let tree = execute_with_traces(&keys, slice, |op| visits += op.trace.visits.len() as u64);
        std::hint::black_box((visits, tree.len()));
        t.elapsed().as_secs_f64()
    });
    // It loads its own tree first; take that load back out.
    let art_ops_per_s = n / (art_s - tr.total_s("art.load_indexed")).max(1e-9);
    m.push(("baselines.art_trace_ops_per_s", art_ops_per_s));
    m.push(("ctt.vs_art_ratio", (n / cold_s) / art_ops_per_s));

    // engine::pool — the same cold slice on two workers, with the static
    // schedule and with sub-sharding + stealing.
    tr.span("pool", 0, |tr| {
        let mut cold_pass = |opts: ExecOpts, cfg: DcartConfig, span, tr: &mut Tracer| {
            let mut session = open_session(&keys, &cfg, &opts);
            tr.span(span, 0, |tr| pass(&mut session, slice, &mut answers, Answers::reset, None, tr))
        };
        let two = ExecOpts { threads: 2, ..SINGLE_THREAD };
        let static_s = cold_pass(two, cfg, "pool.two_workers", tr);
        let adaptive = DcartConfig { split_threshold: Some(0.25), ..cfg };
        let steal_s =
            cold_pass(ExecOpts { steal: true, ..two }, adaptive, "pool.two_workers_steal", tr);
        m.push(("pool.t2_speedup", cold_s / static_s));
        m.push(("pool.t2_steal_speedup", static_s / steal_s));
    });

    // core::accel — simulated time: a host-side change must leave the two
    // simulated numbers exactly as they were.
    tr.span("accel", 0, |tr| {
        let sim_ops = &slice[..slice.len().min(ACCEL_OPS)];
        let run = RunConfig::default();
        let t = Instant::now();
        let accel = tr.span("accel.run", 0, |_| DcartAccel::new(cfg).run(&keys, sim_ops, &run));
        let host_us = t.elapsed().as_secs_f64() * 1e6;
        let cpu_art = tr.span("baselines.cpu_art.run", 0, |_| {
            CpuBaseline::art(CpuConfig::xeon_8468().scaled_for_keys(keys.len()))
                .run(&keys, sim_ops, &run)
        });
        m.push(("accel.sim_mops", accel.throughput_mops()));
        m.push(("accel.sim_speedup_vs_cpu_art", accel.speedup_vs(&cpu_art)));
        m.push(("accel.host_us_per_sim_op", host_us / sim_ops.len() as f64));
    });

    Outcome {
        attempted: stats.ops,
        failed: 0,
        notes: vec![("answer_digest", format!("\"{:#018x}\"", stats.answer_digest))],
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, key: u64, value: u64) -> Op {
        Op { kind, key: Key::from_u64(key), value }
    }

    #[test]
    fn model_orders_point_ops_by_submission_and_defers_scans_to_batch_end() {
        let initial = vec![(Key::from_u64(10), 0), (Key::from_u64(20), 1)];
        let batches = [
            vec![
                op(OpKind::Scan, 10, 5), // sees 10, 20 and the 30 inserted below
                op(OpKind::Read, 30, 0),
                op(OpKind::Insert, 30, 7),
                op(OpKind::Read, 30, 0),
                op(OpKind::Update, 10, 9),
            ],
            vec![op(OpKind::Remove, 20, 0), op(OpKind::Scan, 15, 1), op(OpKind::Read, 20, 0)],
        ];
        let right = vec![vec![Some(3), None, None, Some(7), Some(0)], vec![Some(1), Some(1), None]];
        let slices = || batches.iter().map(Vec::as_slice);
        assert_eq!(model_mismatches(initial.clone(), slices(), &right), 0);
        let mut wrong = right.clone();
        wrong[0][0] = Some(2);
        wrong[1][2] = Some(1);
        assert_eq!(model_mismatches(initial, slices(), &wrong), 2);
    }

    #[test]
    fn executor_answers_match_the_model_and_the_digest_follows_the_seed() {
        let spec = spec("batch-uniform-scan", 200).expect("known workload");
        let a = run_end_to_end(&spec, 5, 0);
        let b = run_end_to_end(&spec, 5, 0);
        let c = run_end_to_end(&spec, 6, 0);
        assert_eq!(a.failed, 0);
        assert!(a.attempted >= (CHECK_BATCHES * BATCH / 2) as u64);
        assert_eq!(a.notes[0], b.notes[0]);
        assert_ne!(a.notes[0], c.notes[0]);
    }
}
