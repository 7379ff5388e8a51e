//! Criterion benchmarks of the CTT executor's hot path: the per-batch
//! combining step (allocating vs. arena-reusing) and the full
//! bucket-execution inner loop at several SOU worker counts.
//!
//! These are the paths the zero-allocation overhaul targets; run with
//! `cargo bench --bench ctt_hot_path` and compare `combine/into` against
//! `combine/alloc`, and the `execute/threads-N` series against each other.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcart::pcu::{combine_batch, combine_batch_into, CombinedBatch};
use dcart::{execute_ctt, CttConsumer, DcartConfig, ExecOpts, TraverseMode};
use dcart_art::simd;
use dcart_workloads::{generate_ops, synth, KeySet, Mix, Op, OpStreamConfig, Workload};

fn fixture(keys: usize, ops: usize) -> (KeySet, Vec<Op>, DcartConfig) {
    let keys = Workload::Ipgeo.generate(keys, 1);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: ops, mix: Mix::C, theta: 0.99, seed: 1 });
    let cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
    (keys, ops, cfg)
}

/// The allocating combiner against the arena-reusing one, over the same
/// 64k-operation batch (the executor calls this once per batch, so the
/// delta is pure per-batch allocation churn).
fn bench_combine(c: &mut Criterion) {
    let (_, ops, cfg) = fixture(20_000, 65_536);
    let mut g = c.benchmark_group("ctt/combine");
    g.throughput(Throughput::Elements(ops.len() as u64));
    g.bench_function("alloc", |b| {
        b.iter(|| combine_batch(&cfg, &ops).scanned);
    });
    g.bench_function("into", |b| {
        let mut out = CombinedBatch { buckets: Vec::new(), scanned: 0 };
        b.iter(|| {
            combine_batch_into(&cfg, &ops, &mut out);
            out.scanned
        });
    });
    g.finish();
}

/// Consumes events without attaching costs, so the measurement is the
/// executor itself (traversal, shortcut probes, record replay).
struct Sink {
    visits: u64,
}

impl CttConsumer for Sink {
    fn op(&mut self, ev: &dcart::CttOpEvent<'_>) {
        self.visits += ev.visits.len() as u64;
    }
}

/// The full bucket-execution inner loop — bulk load, combine, worker
/// fan-out, scan merge, serial replay — at 1, 2, and 4 SOU workers.
/// Identical results at every width; only wall-clock may move (and on a
/// single-core container the threaded rows just measure pool overhead).
fn bench_execute(c: &mut Criterion) {
    let (keys, ops, cfg) = fixture(10_000, 40_000);
    let mut g = c.benchmark_group("ctt/execute");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ops.len() as u64));
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            b.iter(|| {
                let mut sink = Sink { visits: 0 };
                let opts = ExecOpts { threads, ..ExecOpts::default() };
                let (_, stats, _) =
                    execute_ctt(&keys, &ops, &cfg, 4_096, &opts, &mut sink).expect("fault-free");
                (stats.ops, sink.visits)
            });
        });
    }
    g.finish();
}

/// Static against adaptive bucket scheduling under hard skew: hot-prefix
/// keys (75 % of keys behind one leading byte, so one bucket carries most
/// of the stream) probed by a steeper-than-YCSB zipfian, at 1 and 2 SOU
/// workers. `static` pins `split_threshold = 1.0` (never split, no
/// stealing); `adaptive` splits hot buckets at 0.25 of a batch and steals.
/// Results are identical across all four cells (the determinism
/// contract); only wall-clock moves. The interesting comparison is
/// `adaptive/threads-2` against `static/threads-2`: with the hot bucket
/// split eight ways the workers have balanced work to share, where the
/// static schedule serializes on the hot shard. On a single-core host
/// both 2-thread cells time the same core — compare them to each other,
/// not to the 1-thread rows.
fn bench_skew(c: &mut Criterion) {
    let keys = synth::hot_prefix(10_000, 0.75, 1);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: 40_000, mix: Mix::C, theta: 1.2, seed: 1 });
    let mut g = c.benchmark_group("ctt/skew");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ops.len() as u64));
    for (name, frac, steal) in [("static", 1.0f64, false), ("adaptive", 0.25, true)] {
        for threads in [1usize, 2] {
            let mut cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
            cfg.split_threshold = Some(frac);
            let opts = ExecOpts { threads, mode: TraverseMode::LevelWise, steal };
            g.bench_with_input(
                BenchmarkId::new(name, format!("threads-{threads}")),
                &opts,
                |b, opts| {
                    b.iter(|| {
                        let mut sink = Sink { visits: 0 };
                        let (_, stats, _) = execute_ctt(&keys, &ops, &cfg, 4_096, opts, &mut sink)
                            .expect("fault-free");
                        (stats.ops, sink.visits)
                    });
                },
            );
        }
    }
    g.finish();
}

/// Level-wise batched Traverse against per-op traversal on the skewed
/// read cells (IPGEO and DICT, zipfian probes). The tree is built once
/// and sized past the fast cache levels, then both modes resolve the same
/// 64k-probe stream in 8 192-key batches — the shape the CTT's Traverse
/// stage sees per SOU bucket. Per-op re-fetches hot upper-level nodes once
/// per probe; level-wise loads each `(node, wave)` group once (Fig 3 node
/// skew), which is the win this cell exists to keep honest.
fn bench_traverse(c: &mut Criterion) {
    use dcart_art::{Art, Key, LevelWiseScratch, RecordingTracer};
    let mut g = c.benchmark_group("ctt/traverse");
    g.sample_size(20);
    for workload in [Workload::Ipgeo, Workload::Dict] {
        let keys = workload.generate(1_000_000, 1);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 65_536, mix: Mix::A, theta: 0.99, seed: 1 },
        );
        let probes: Vec<Key> = ops.iter().map(|o| o.key.clone()).collect();
        let mut art: Art<u64> = Art::new();
        art.load_indexed(&keys.keys).expect("prefix-free");
        g.throughput(Throughput::Elements(probes.len() as u64));
        g.bench_function(BenchmarkId::new("per_op", workload.name()), |b| {
            let mut tracer = RecordingTracer::new();
            b.iter(|| {
                let mut acc = 0u64;
                for k in &probes {
                    tracer.clear();
                    if art.locate_leaf(k, &mut tracer).is_some() {
                        acc += 1;
                    }
                    acc += tracer.trace.visits.len() as u64;
                }
                acc
            });
        });
        g.bench_function(BenchmarkId::new("level_wise", workload.name()), |b| {
            let mut scratch = LevelWiseScratch::new();
            b.iter(|| {
                let mut acc = 0u64;
                for chunk in probes.chunks(8_192) {
                    art.locate_leaves_level_wise(chunk, &mut scratch);
                    acc += scratch.ops_advanced();
                    for i in 0..chunk.len() {
                        if scratch.target(i).is_some() {
                            acc += 1;
                        }
                    }
                }
                acc
            });
        });
    }
    g.finish();
}

/// The node-search kernels the SIMD module accelerates: the N16 lane
/// search (vector vs. SWAR vs. naive scalar) and the N48 occupancy bitmap
/// (vector vs. scalar), each over a data-dependent probe chain so the
/// branch predictor cannot memoize the sequence.
fn bench_node_search(c: &mut Criterion) {
    let mut keys16 = [0u8; 16];
    for (i, k) in keys16.iter_mut().enumerate() {
        *k = (i * 16 + 3) as u8;
    }
    let probes: Vec<u8> = (0..4_096u32).map(|i| (i.wrapping_mul(97) % 256) as u8).collect();

    let mut g = c.benchmark_group("node/search16");
    g.throughput(Throughput::Elements(probes.len() as u64));
    type Search16 = dyn Fn(&[u8; 16], usize, u8) -> Option<usize>;
    let chain = |search: &Search16| {
        let mut acc = 0usize;
        for &p in &probes {
            let probe = p.wrapping_add(acc as u8);
            acc += search(&keys16, 16, probe).map_or(1, |i| i + 2);
        }
        acc
    };
    g.bench_function("simd", |b| b.iter(|| chain(&simd::search16)));
    g.bench_function("swar", |b| b.iter(|| chain(&simd::search16_swar)));
    g.bench_function("scalar", |b| b.iter(|| chain(&simd::search16_scalar)));
    g.finish();

    let mut index = [0xFFu8; 256];
    for slot in 0..48u8 {
        let byte = slot.wrapping_mul(37).wrapping_add(11);
        index[usize::from(byte)] = slot;
    }
    let mut g = c.benchmark_group("node/present_bitmap");
    g.bench_function("simd", |b| {
        b.iter(|| simd::present_bitmap(&index, 0xFF).iter().map(|w| w.count_ones()).sum::<u32>())
    });
    g.bench_function("scalar", |b| {
        b.iter(|| {
            simd::present_bitmap_scalar(&index, 0xFF).iter().map(|w| w.count_ones()).sum::<u32>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_combine,
    bench_execute,
    bench_skew,
    bench_traverse,
    bench_node_search
);
criterion_main!(benches);
