//! The wall-clock perf harness (`bench` binary): times the *functional*
//! executors on the tier-1 workloads and emits `BENCH_ctt.json`.
//!
//! Everything else in this crate reports **simulated** time derived from
//! cycle models; this module is the one place that measures how fast the
//! reproduction itself runs on the host. The report establishes the perf
//! baseline future PRs are compared against:
//!
//! * ops/sec of the CTT executor ([`dcart::execute_ctt`]) and of the
//!   baseline trace executor, B+-tree, and hash index on the same
//!   key/op streams;
//! * per-cell wall-clock seconds (the same [`crate::parallel`] cells the
//!   `repro` experiments fan out);
//! * allocation-sensitive counters (node visits, tree memory, node count)
//!   that move when a hot path starts cloning or reallocating again;
//! * the N16 masked-vs-binary search micro-bench ratio.

use std::path::Path;
use std::time::Instant;

use dcart::{execute_ctt, CttConsumer, DcartConfig, ExecOpts};
use dcart_art::node::{binary_search_lane, masked_search_lane};
use dcart_baselines::execute_with_traces;
use dcart_indexes::{BPlusTree, HashIndex};
use dcart_workloads::{generate_ops, Mix, Op, OpKind, OpStreamConfig, Workload};
use serde::{Deserialize, Serialize};

use crate::{write_report, Scale, Table};

/// One timed executor × workload cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfCell {
    /// Executor name (`CTT`, `ART-trace`, `B+tree`, `hash`).
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Operations executed.
    pub ops: usize,
    /// Wall-clock seconds spent executing the operation stream (excludes
    /// the bulk load).
    pub wall_s: f64,
    /// Host throughput over the operation stream.
    pub ops_per_sec: f64,
    /// Wall-clock seconds spent bulk-loading the key set.
    pub load_wall_s: f64,
    /// Total node fetches recorded while executing (0 where the executor
    /// does not trace).
    pub node_visits: u64,
    /// Final index memory footprint in bytes — an allocation canary: a
    /// regression that re-introduces per-key copies shows up here first.
    pub memory_bytes: u64,
    /// Arena node loads performed by the Traverse stage (CTT only, 0
    /// elsewhere). Under level-wise traversal a node loaded once serves a
    /// whole wave of operations, so this falls below
    /// `traverse_ops_advanced`; per-op traversal keeps the two equal.
    #[serde(default)]
    pub traverse_nodes_visited: u64,
    /// Single-level advancement steps performed by the Traverse stage
    /// (CTT only, 0 elsewhere). Mode-independent — the denominator of the
    /// wave-sharing ratio.
    #[serde(default)]
    pub traverse_ops_advanced: u64,
}

/// Masked vs. binary N16 search micro-bench (satellite of the hot-path
/// overhaul): both comparators run the same 1 000-probe lookup batch many
/// times over identical nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct N16Bench {
    /// Probes per round (1 000).
    pub lookups_per_round: usize,
    /// Rounds timed.
    pub rounds: usize,
    /// Nanoseconds per lookup, SWAR masked search.
    pub masked_ns_per_lookup: f64,
    /// Nanoseconds per lookup, the binary search it replaced.
    pub binary_ns_per_lookup: f64,
    /// `binary / masked` — values above 1.0 mean the masked search wins.
    pub speedup: f64,
}

/// One cell of the skew sweep: the CTT executor on the hot-prefix key set
/// under a Zipfian op stream, with the adaptive machinery (sub-sharding +
/// work stealing) either off (`split_threshold = 1.0`, static schedule) or
/// on (`0.25` + stealing).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SkewCell {
    /// Zipfian skew of the op stream.
    pub theta: f64,
    /// SOU worker threads.
    pub threads: usize,
    /// Whether sub-sharding and stealing were enabled.
    pub adaptive: bool,
    /// Wall-clock seconds over the op stream (bulk load excluded).
    pub wall_s: f64,
    /// Host throughput over the op stream.
    pub ops_per_sec: f64,
    /// Hot-bucket splits the run performed (0 when static).
    pub shard_splits: u64,
    /// Cooled-bucket re-merges the run performed.
    pub shard_merges: u64,
    /// Pool steal operations (schedule-dependent; 0 with stealing off).
    pub steal_events: u64,
    /// Share of all routed ops landing in the single hottest bucket — the
    /// skew the adaptive machinery exists to flatten.
    pub hot_bucket_share: f64,
}

/// The full `BENCH_ctt.json` payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Keys loaded per workload.
    pub keys: usize,
    /// Operations executed per cell.
    pub ops: usize,
    /// Worker threads the cells were fanned over.
    pub jobs: usize,
    /// SOU worker threads inside each CTT execution
    /// ([`ExecOpts::threads`]) — results are identical at any setting,
    /// only the CTT cells' wall-clock moves.
    pub sou_threads: usize,
    /// Every timed executor × workload cell.
    pub cells: Vec<PerfCell>,
    /// The N16 search micro-bench.
    pub n16_search: N16Bench,
    /// The skew sweep: theta × threads × adaptive on the hot-prefix keys.
    #[serde(default)]
    pub skew: Vec<SkewCell>,
    /// Per-bucket load histogram captured from the steepest adaptive
    /// 2-thread sweep cell — the shape the splits were reacting to.
    #[serde(default)]
    pub skew_load: dcart::LoadReport,
}

/// Counts CTT events without attaching platform costs.
#[derive(Default)]
struct VisitCounter {
    visits: u64,
}

impl CttConsumer for VisitCounter {
    fn op(&mut self, ev: &dcart::CttOpEvent<'_>) {
        self.visits += ev.visits.len() as u64;
    }
}

/// One executor's measurements; the traverse counters stay 0 for every
/// engine except the CTT, whose Traverse stage reports them.
struct Timing {
    wall_s: f64,
    load_wall_s: f64,
    node_visits: u64,
    memory_bytes: u64,
    traverse_nodes_visited: u64,
    traverse_ops_advanced: u64,
}

impl Timing {
    fn untraced(wall_s: f64, load_wall_s: f64, node_visits: u64, memory_bytes: u64) -> Timing {
        Timing {
            wall_s,
            load_wall_s,
            node_visits,
            memory_bytes,
            traverse_nodes_visited: 0,
            traverse_ops_advanced: 0,
        }
    }
}

fn time_ctt(keys: &dcart_workloads::KeySet, ops: &[Op], exec: &ExecOpts) -> Timing {
    let cfg = DcartConfig::default().scaled_for_keys(keys.len()).with_auto_prefix_skip(keys);
    let mut counter = VisitCounter::default();
    // The executor bulk-loads internally; time an explicit load on a
    // throwaway tree to report the two phases separately.
    let t_load = Instant::now();
    let mut probe = dcart_art::Art::new();
    probe.load_indexed(&keys.keys).expect("prefix-free");
    let load_wall_s = t_load.elapsed().as_secs_f64();
    drop(probe);
    let t0 = Instant::now();
    let (art, stats, _) =
        execute_ctt(keys, ops, &cfg, 4_096, exec, &mut counter).expect("CTT cells run fault-free");
    let wall_s = (t0.elapsed().as_secs_f64() - load_wall_s).max(1e-9);
    Timing {
        wall_s,
        load_wall_s,
        node_visits: counter.visits,
        memory_bytes: art.memory_footprint(),
        traverse_nodes_visited: stats.shortcut.nodes_visited,
        traverse_ops_advanced: stats.shortcut.ops_advanced,
    }
}

fn time_art_trace(keys: &dcart_workloads::KeySet, ops: &[Op]) -> Timing {
    let t_load = Instant::now();
    let mut probe = dcart_art::Art::new();
    probe.load_indexed(&keys.keys).expect("prefix-free");
    let load_wall_s = t_load.elapsed().as_secs_f64();
    drop(probe);
    let mut visits = 0u64;
    let t0 = Instant::now();
    let art = execute_with_traces(keys, ops, |op| visits += op.trace.visits.len() as u64);
    let wall_s = (t0.elapsed().as_secs_f64() - load_wall_s).max(1e-9);
    Timing::untraced(wall_s, load_wall_s, visits, art.memory_footprint())
}

fn time_bptree(keys: &dcart_workloads::KeySet, ops: &[Op]) -> Timing {
    let t_load = Instant::now();
    let mut t: BPlusTree<u64> = BPlusTree::new(32);
    for (i, k) in keys.keys.iter().enumerate() {
        t.insert(k.clone(), i as u64);
    }
    let load_wall_s = t_load.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for op in ops {
        match op.kind {
            OpKind::Read => {
                let _ = t.get(&op.key);
            }
            OpKind::Update | OpKind::Insert => {
                t.insert(op.key.clone(), op.value);
            }
            OpKind::Remove => {
                let _ = t.remove(&op.key);
            }
            OpKind::Scan => {
                let _ = t.range(op.key.as_bytes(), op.value as usize);
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    Timing::untraced(wall_s, load_wall_s, t.stats().node_accesses, t.memory_footprint())
}

fn time_hash(keys: &dcart_workloads::KeySet, ops: &[Op]) -> Timing {
    let t_load = Instant::now();
    let mut h: HashIndex<u64> = HashIndex::new();
    for (i, k) in keys.keys.iter().enumerate() {
        h.insert(k.clone(), i as u64);
    }
    let load_wall_s = t_load.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for op in ops {
        match op.kind {
            // Hash indexes cannot range-scan; a scan degrades to a point
            // probe of its start key, keeping the op counts comparable.
            OpKind::Read | OpKind::Scan => {
                let _ = h.get(&op.key);
            }
            OpKind::Update | OpKind::Insert => {
                h.insert(op.key.clone(), op.value);
            }
            OpKind::Remove => {
                let _ = h.remove(&op.key);
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    Timing::untraced(wall_s, load_wall_s, h.stats().node_accesses, h.memory_footprint())
}

/// Times `1_000 * rounds` lookups through each N16 comparator and returns
/// the measured ratio.
pub fn bench_n16_search(rounds: usize) -> N16Bench {
    // A full node of spread-out keys plus a probe set mixing hits and
    // misses, fixed so both comparators do identical work.
    let mut keys = [0u8; 16];
    for (i, k) in keys.iter_mut().enumerate() {
        *k = (i * 16 + 3) as u8;
    }
    let probes: Vec<u8> = (0..1_000u32).map(|i| (i.wrapping_mul(97) % 256) as u8).collect();

    // Each probe is perturbed by the accumulated results so far, making
    // the sequence data-dependent the way real traversals are (a repeated
    // fixed sequence lets the branch predictor memorize the binary
    // search's decisions, which no tree workload allows). Both
    // comparators return identical lanes, so both walk the same chain.
    fn chain(
        keys: &[u8; 16],
        probes: &[u8],
        rounds: usize,
        search: impl Fn(&[u8; 16], usize, u8) -> Option<usize>,
    ) -> (f64, usize) {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for _ in 0..rounds {
            for &p in probes {
                let probe = p.wrapping_add(acc as u8);
                acc += search(keys, 16, probe).map_or(1, |i| i + 2);
            }
        }
        (t0.elapsed().as_secs_f64(), acc)
    }

    // One warm-up pass proving the comparators agree lane-for-lane.
    for &p in &probes {
        assert_eq!(
            masked_search_lane(&keys, 16, p),
            binary_search_lane(&keys, 16, p),
            "comparators disagree on probe {p:#04x}"
        );
    }

    let (masked_s, masked_acc) = chain(&keys, &probes, rounds, masked_search_lane);
    let (binary_s, binary_acc) = chain(&keys, &probes, rounds, binary_search_lane);
    assert_eq!(masked_acc, binary_acc, "comparators diverged mid-chain");

    let n = (rounds * probes.len()) as f64;
    N16Bench {
        lookups_per_round: probes.len(),
        rounds,
        masked_ns_per_lookup: masked_s * 1e9 / n,
        binary_ns_per_lookup: binary_s * 1e9 / n,
        speedup: binary_s / masked_s.max(1e-12),
    }
}

/// Zipfian skews the sweep covers: mild, the YCSB default, and a
/// steeper-than-YCSB tail that exercises the tabulated sampler.
pub const SKEW_THETAS: [f64; 3] = [0.5, 0.99, 1.2];

/// Times the CTT executor on the hot-prefix key set across
/// [`SKEW_THETAS`] × {1, 2} threads × {static, adaptive}, returning the
/// cells plus the per-bucket load histogram of the steepest adaptive
/// 2-thread cell.
///
/// Thread counts and stealing never change results (the determinism
/// contract), so the sweep only reads wall-clock and the deterministic
/// split/merge counters. On a single-core host the 2-thread cells time
/// the same core twice — compare the cells, don't expect hardware
/// speedup there.
pub fn run_skew_sweep(scale: &Scale) -> (Vec<SkewCell>, dcart::LoadReport) {
    let keys = dcart_workloads::synth::hot_prefix(scale.keys, 0.75, scale.seed);
    // Same probe-load subtraction as `time_ctt`: the executor bulk-loads
    // internally and the sweep times only the op stream.
    let t_load = Instant::now();
    let mut probe = dcart_art::Art::new();
    probe.load_indexed(&keys.keys).expect("prefix-free");
    let load_wall_s = t_load.elapsed().as_secs_f64();
    drop(probe);

    let mut cells = Vec::new();
    let mut captured = dcart::LoadReport::default();
    for (ti, &theta) in SKEW_THETAS.iter().enumerate() {
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: scale.ops, mix: Mix::C, theta, seed: scale.seed },
        );
        for threads in [1usize, 2] {
            for adaptive in [false, true] {
                let mut cfg =
                    DcartConfig::default().scaled_for_keys(keys.len()).with_auto_prefix_skip(&keys);
                cfg.split_threshold = Some(if adaptive { 0.25 } else { 1.0 });
                let opts =
                    ExecOpts { threads, mode: dcart::TraverseMode::LevelWise, steal: adaptive };
                let mut sink = VisitCounter::default();
                let t0 = Instant::now();
                let (_, stats, load) = execute_ctt(&keys, &ops, &cfg, 4_096, &opts, &mut sink)
                    .expect("skew sweep executes fault-free");
                let wall_s = (t0.elapsed().as_secs_f64() - load_wall_s).max(1e-9);
                let total: u64 = load.buckets.iter().map(|b| b.ops).sum();
                let hottest = load.buckets.iter().map(|b| b.ops).max().unwrap_or(0);
                cells.push(SkewCell {
                    theta,
                    threads,
                    adaptive,
                    wall_s,
                    ops_per_sec: ops.len() as f64 / wall_s,
                    shard_splits: stats.shard_splits,
                    shard_merges: stats.shard_merges,
                    steal_events: load.steal_events,
                    hot_bucket_share: if total == 0 { 0.0 } else { hottest as f64 / total as f64 },
                });
                // Keep the histogram of the steepest adaptive multi-thread
                // cell (selected by index, not by float equality).
                if ti == SKEW_THETAS.len() - 1 && threads == 2 && adaptive {
                    captured = load;
                }
            }
        }
    }
    (cells, captured)
}

/// Runs the harness at `scale` and writes `BENCH_ctt.json` under `out_dir`.
pub fn run(scale: &Scale, out_dir: &Path) -> PerfReport {
    println!("== perf harness: host wall-clock of the functional executors ==");
    let workloads = [Workload::Ipgeo, Workload::Dict, Workload::RandomSparse];
    let engines = ["CTT", "ART-trace", "B+tree", "hash"];

    let data = crate::parallel::par_map(scale.jobs, workloads.to_vec(), |w| {
        let keys = w.generate(scale.keys, scale.seed);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
        );
        (keys, ops)
    });
    let cells: Vec<(usize, Workload, &str)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, &w)| engines.iter().map(move |&e| (wi, w, e)))
        .collect();
    let timed = crate::parallel::par_map_timed(scale.jobs, cells, |(wi, workload, engine)| {
        let (keys, ops) = &data[wi];
        let t = match engine {
            "CTT" => time_ctt(keys, ops, &scale.exec),
            "ART-trace" => time_art_trace(keys, ops),
            "B+tree" => time_bptree(keys, ops),
            _ => time_hash(keys, ops),
        };
        PerfCell {
            engine: engine.to_string(),
            workload: workload.name().to_string(),
            ops: ops.len(),
            wall_s: t.wall_s,
            ops_per_sec: ops.len() as f64 / t.wall_s,
            load_wall_s: t.load_wall_s,
            node_visits: t.node_visits,
            memory_bytes: t.memory_bytes,
            traverse_nodes_visited: t.traverse_nodes_visited,
            traverse_ops_advanced: t.traverse_ops_advanced,
        }
    });
    let cells: Vec<PerfCell> = timed.into_iter().map(|t| t.value).collect();

    let mut t =
        Table::new(&["executor", "workload", "ops/sec", "exec s", "load s", "visits", "memory MB"]);
    for c in &cells {
        t.row(&[
            c.engine.clone(),
            c.workload.clone(),
            format!("{:.0}", c.ops_per_sec),
            format!("{:.3}", c.wall_s),
            format!("{:.3}", c.load_wall_s),
            c.node_visits.to_string(),
            format!("{:.2}", c.memory_bytes as f64 / 1e6),
        ]);
    }
    t.print();

    let n16_search = bench_n16_search(2_000);
    println!(
        "N16 search: masked {:.2} ns/lookup vs binary {:.2} ns/lookup ({:.2}x)\n",
        n16_search.masked_ns_per_lookup, n16_search.binary_ns_per_lookup, n16_search.speedup
    );

    println!("== skew sweep: hot-prefix keys, static vs adaptive sub-sharding ==");
    let (skew, skew_load) = run_skew_sweep(scale);
    let mut st = Table::new(&[
        "theta",
        "threads",
        "schedule",
        "ops/sec",
        "splits",
        "merges",
        "steals",
        "hot share",
    ]);
    for c in &skew {
        st.row(&[
            format!("{:.2}", c.theta),
            c.threads.to_string(),
            if c.adaptive { "adaptive" } else { "static" }.to_string(),
            format!("{:.0}", c.ops_per_sec),
            c.shard_splits.to_string(),
            c.shard_merges.to_string(),
            c.steal_events.to_string(),
            format!("{:.0}%", c.hot_bucket_share * 100.0),
        ]);
    }
    st.print();
    for (ti, &theta) in SKEW_THETAS.iter().enumerate() {
        let row = &skew[ti * 4..ti * 4 + 4];
        let static_1t = row[0].ops_per_sec;
        let adaptive_2t = row[3].ops_per_sec;
        println!(
            "theta {theta:.2}: adaptive 2-thread vs static 1-thread = {:.2}x \
             (host-core-count dependent)",
            adaptive_2t / static_1t.max(1e-9)
        );
    }
    println!();

    let report = PerfReport {
        keys: scale.keys,
        ops: scale.ops,
        jobs: scale.jobs,
        sou_threads: scale.exec.threads,
        cells,
        n16_search,
        skew,
        skew_load,
    };
    write_report(out_dir, "BENCH_ctt", &report);
    report
}

/// Reads one integer counter of a cell.
type Counter = fn(&PerfCell) -> u64;

/// The integer counters [`check_baseline`] compares, cell by cell. Each
/// is a pure function of the workload, the key and op counts and the
/// executor, so it reproduces exactly on any host and at any `--jobs`,
/// `--sou-threads` and `--steal` (checked on a 2-vCPU host at 1 and 2
/// SOU threads, with and without stealing); the wall-clock fields are
/// not compared.
const EXACT_COUNTERS: [(&str, Counter); 5] = [
    ("ops", |c| c.ops as u64),
    ("node_visits", |c| c.node_visits),
    ("memory_bytes", |c| c.memory_bytes),
    ("traverse_nodes_visited", |c| c.traverse_nodes_visited),
    ("traverse_ops_advanced", |c| c.traverse_ops_advanced),
];

/// Compares a freshly measured report against a committed baseline file
/// (`BENCH_baseline.json`): every baseline cell must be present, and each
/// of its [`EXACT_COUNTERS`] equal to the baseline's. A changed counter
/// means the executor does different work — more node visits, a bigger
/// tree, another wave shape — which a change must either avoid or own by
/// regenerating the baseline.
///
/// # Errors
///
/// Returns a human-readable description of every differing counter (or of
/// an unreadable/invalid baseline file, or a run at another scale). On
/// success, returns a one-line summary for the log.
pub fn check_baseline(report: &PerfReport, baseline_path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: PerfReport = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse baseline {}: {e}", baseline_path.display()))?;
    if (report.keys, report.ops) != (baseline.keys, baseline.ops) {
        return Err(format!(
            "the baseline was measured at {} keys / {} ops per cell, this run at {} / {}",
            baseline.keys, baseline.ops, report.keys, report.ops
        ));
    }
    let mut failures = Vec::new();
    for base in &baseline.cells {
        let Some(fresh) =
            report.cells.iter().find(|c| c.engine == base.engine && c.workload == base.workload)
        else {
            failures.push(format!(
                "cell {}/{} present in the baseline but missing from the fresh report",
                base.engine, base.workload
            ));
            continue;
        };
        for (name, counter) in EXACT_COUNTERS {
            if counter(fresh) != counter(base) {
                failures.push(format!(
                    "{}/{}: {name} is {}, the baseline's is {}",
                    fresh.engine,
                    fresh.workload,
                    counter(fresh),
                    counter(base)
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "baseline check: {} counters of {} cells equal to {}",
            EXACT_COUNTERS.len(),
            baseline.cells.len(),
            baseline_path.display()
        ))
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_every_cell_and_agrees_on_n16() {
        let scale =
            Scale { keys: 1_000, ops: 3_000, concurrency: 1_024, seed: 11, ..Scale::smoke() };
        let tmp = std::env::temp_dir().join("dcart-perf-test");
        let r = run(&scale, &tmp);
        assert_eq!(r.cells.len(), 12, "4 executors x 3 workloads");
        for c in &r.cells {
            assert_eq!(c.ops, 3_000);
            assert!(c.wall_s > 0.0 && c.ops_per_sec > 0.0, "{}/{}", c.engine, c.workload);
            assert!(c.memory_bytes > 0, "{}/{}", c.engine, c.workload);
        }
        // The traced executors actually fetch nodes.
        assert!(r
            .cells
            .iter()
            .filter(|c| c.engine == "CTT" || c.engine == "ART-trace")
            .all(|c| c.node_visits > 0));
        // The CTT's Traverse stage reports its wave-sharing counters: some
        // advancement happened, and loads never exceed advancement steps.
        assert!(r.cells.iter().filter(|c| c.engine == "CTT").all(|c| {
            c.traverse_ops_advanced > 0 && c.traverse_nodes_visited <= c.traverse_ops_advanced
        }));
        // Timing ratios are machine-dependent; the guard only pins sanity:
        // both comparators ran, produced positive times, and the masked
        // search is not catastrophically (>5x) slower than the binary one.
        let n16 = &r.n16_search;
        assert!(n16.masked_ns_per_lookup > 0.0 && n16.binary_ns_per_lookup > 0.0);
        assert!(n16.speedup > 0.2, "masked search >5x slower than binary: {:.3}x", n16.speedup);
        let json = std::fs::read_to_string(tmp.join("BENCH_ctt.json")).unwrap();
        assert!(json.contains("n16_search"));
        assert!(json.contains("sou_threads"));
        assert!(json.contains("skew_load"));

        // The skew sweep covers the full theta x threads x schedule grid.
        assert_eq!(r.skew.len(), 12, "3 thetas x 2 thread counts x 2 schedules");
        for c in &r.skew {
            assert!(c.wall_s > 0.0 && c.ops_per_sec > 0.0, "theta {}", c.theta);
            assert!((0.0..=1.0).contains(&c.hot_bucket_share));
        }
        // Static cells never split; the hot-prefix key set under steep skew
        // drives the adaptive schedule into splitting.
        assert!(r.skew.iter().filter(|c| !c.adaptive).all(|c| c.shard_splits == 0));
        assert!(
            r.skew.iter().filter(|c| c.adaptive && c.theta > 1.0).all(|c| c.shard_splits > 0),
            "steep-skew adaptive cells must split"
        );
        // Stealing off means zero steal events, at any thread count.
        assert!(r.skew.iter().filter(|c| !c.adaptive).all(|c| c.steal_events == 0));
        // The captured histogram reflects the skew the splits reacted to.
        assert!(!r.skew_load.buckets.is_empty());
        assert!(r.skew_load.buckets.iter().any(|b| b.splits > 0));
    }

    #[test]
    fn baseline_check_accepts_itself_and_flags_collapses() {
        let scale = Scale { keys: 500, ops: 1_000, concurrency: 1_024, seed: 3, ..Scale::smoke() };
        let tmp = std::env::temp_dir().join("dcart-baseline-test");
        let report = run(&scale, &tmp);
        let path = tmp.join("BENCH_ctt.json");

        // A report always passes against its own counters, and timing is
        // not compared: a run ten times slower passes too.
        let summary = check_baseline(&report, &path).expect("self-comparison passes");
        assert!(summary.contains("5 counters of 12 cells"), "{summary}");
        let mut slow = report.clone();
        for c in &mut slow.cells {
            c.ops_per_sec /= 10.0;
            c.wall_s *= 10.0;
        }
        check_baseline(&slow, &path).expect("wall-clock fields are not compared");

        // Any one counter of one cell off by one fails, and is named.
        type Bump = fn(&mut PerfCell);
        let perturb: [(&str, Bump); 5] = [
            ("ops", |c| c.ops += 1),
            ("node_visits", |c| c.node_visits += 1),
            ("memory_bytes", |c| c.memory_bytes += 1),
            ("traverse_nodes_visited", |c| c.traverse_nodes_visited += 1),
            ("traverse_ops_advanced", |c| c.traverse_ops_advanced += 1),
        ];
        for (name, bump) in perturb {
            let mut off = report.clone();
            bump(&mut off.cells[4]);
            let err = check_baseline(&off, &path).expect_err("a changed counter fails");
            let cell = format!("{}/{}: {name} is", off.cells[4].engine, off.cells[4].workload);
            assert!(err.contains(&cell), "{err}");
            assert_eq!(err.lines().count(), 1, "{err}");
        }

        // Another scale, and a missing baseline, are errors too.
        let bigger = Scale { keys: 600, ..scale };
        assert!(check_baseline(&run(&bigger, &tmp.join("bigger")), &path).is_err());
        assert!(check_baseline(&report, &tmp.join("nope.json")).is_err());
    }
}
