//! The exact-counter harness (`bench` binary): runs the *functional*
//! executors on the tier-1 workloads and emits `BENCH_ctt.json`.
//!
//! Every field of the report is an integer counter — node visits, index
//! memory, the Traverse stage's wave-sharing counters — that is a pure
//! function of the workload, the key and op counts and the executor, so
//! [`check_baseline`] compares a fresh run against the committed
//! `BENCH_baseline.json` exactly. A changed counter means an executor
//! does different work: more node visits, a bigger tree, another wave
//! shape. Host speed is not measured here; the `benchmark/` package's
//! per-layer metrics cover it.

use std::path::Path;

use dcart::{execute_ctt, CttConsumer, DcartConfig, ExecOpts};
use dcart_baselines::execute_with_traces;
use dcart_indexes::{BPlusTree, HashIndex};
use dcart_workloads::{generate_ops, KeySet, Mix, Op, OpKind, OpStreamConfig, Workload};
use serde::{Deserialize, Serialize};

use crate::{write_report, Scale};

/// One executor × workload cell's counters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfCell {
    /// Executor name (`CTT`, `ART-trace`, `B+tree`, `hash`).
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Operations executed.
    pub ops: usize,
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
    pub traverse_nodes_visited: u64,
    /// Single-level advancement steps performed by the Traverse stage
    /// (CTT only, 0 elsewhere). Mode-independent — the denominator of the
    /// wave-sharing ratio.
    pub traverse_ops_advanced: u64,
}

/// The full `BENCH_ctt.json` payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Keys loaded per workload.
    pub keys: usize,
    /// Operations executed per cell.
    pub ops: usize,
    /// Every executor × workload cell.
    pub cells: Vec<PerfCell>,
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

/// One executor's counters; the traverse counters stay 0 for every
/// engine except the CTT, whose Traverse stage reports them.
#[derive(Default)]
struct Counts {
    node_visits: u64,
    memory_bytes: u64,
    traverse_nodes_visited: u64,
    traverse_ops_advanced: u64,
}

fn count_ctt(keys: &KeySet, ops: &[Op], exec: &ExecOpts) -> Counts {
    let cfg = DcartConfig::default().scaled_for_keys(keys.len()).with_auto_prefix_skip(keys);
    let mut counter = VisitCounter::default();
    let (art, stats, _) =
        execute_ctt(keys, ops, &cfg, 4_096, exec, &mut counter).expect("CTT cells run fault-free");
    Counts {
        node_visits: counter.visits,
        memory_bytes: art.memory_footprint(),
        traverse_nodes_visited: stats.shortcut.nodes_visited,
        traverse_ops_advanced: stats.shortcut.ops_advanced,
    }
}

fn count_art_trace(keys: &KeySet, ops: &[Op]) -> Counts {
    let mut node_visits = 0u64;
    let art = execute_with_traces(keys, ops, |op| node_visits += op.trace.visits.len() as u64);
    Counts { node_visits, memory_bytes: art.memory_footprint(), ..Counts::default() }
}

fn count_bptree(keys: &KeySet, ops: &[Op]) -> Counts {
    let mut t: BPlusTree<u64> = BPlusTree::new(32);
    for (i, k) in keys.keys.iter().enumerate() {
        t.insert(k.clone(), i as u64);
    }
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
    Counts {
        node_visits: t.stats().node_accesses,
        memory_bytes: t.memory_footprint(),
        ..Counts::default()
    }
}

fn count_hash(keys: &KeySet, ops: &[Op]) -> Counts {
    let mut h: HashIndex<u64> = HashIndex::new();
    for (i, k) in keys.keys.iter().enumerate() {
        h.insert(k.clone(), i as u64);
    }
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
    Counts {
        node_visits: h.stats().node_accesses,
        memory_bytes: h.memory_footprint(),
        ..Counts::default()
    }
}

/// Runs the harness at `scale` and writes `BENCH_ctt.json` under `out_dir`.
pub fn run(scale: &Scale, out_dir: &Path) -> PerfReport {
    println!("== perf counters: {} keys, {} ops per cell ==", scale.keys, scale.ops);
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
    let cells = crate::parallel::par_map(scale.jobs, cells, |(wi, workload, engine)| {
        let (keys, ops) = &data[wi];
        let c = match engine {
            "CTT" => count_ctt(keys, ops, &scale.exec),
            "ART-trace" => count_art_trace(keys, ops),
            "B+tree" => count_bptree(keys, ops),
            _ => count_hash(keys, ops),
        };
        PerfCell {
            engine: engine.to_string(),
            workload: workload.name().to_string(),
            ops: ops.len(),
            node_visits: c.node_visits,
            memory_bytes: c.memory_bytes,
            traverse_nodes_visited: c.traverse_nodes_visited,
            traverse_ops_advanced: c.traverse_ops_advanced,
        }
    });

    let report = PerfReport { keys: scale.keys, ops: scale.ops, cells };
    write_report(out_dir, "BENCH_ctt", &report);
    report
}

/// Reads one integer counter of a cell.
type Counter = fn(&PerfCell) -> u64;

/// The integer counters [`check_baseline`] compares, cell by cell. Each
/// is a pure function of the workload, the key and op counts and the
/// executor, so it reproduces exactly on any host, at any worker count
/// and with any [`ExecOpts`] (checked on a 2-vCPU host at 1 and 2 SOU
/// threads, with and without stealing).
const EXACT_COUNTERS: [(&str, Counter); 5] = [
    ("ops", |c| c.ops as u64),
    ("node_visits", |c| c.node_visits),
    ("memory_bytes", |c| c.memory_bytes),
    ("traverse_nodes_visited", |c| c.traverse_nodes_visited),
    ("traverse_ops_advanced", |c| c.traverse_ops_advanced),
];

/// Compares a freshly measured report against a committed baseline file
/// (`BENCH_baseline.json`): both must hold the same cells, and each of a
/// cell's `EXACT_COUNTERS` must equal the baseline's. A cell only one
/// side has is an error too, so a new or renamed cell is pinned the
/// moment it appears. A changed counter is a change the author must
/// either avoid or own by regenerating the baseline.
///
/// # Errors
///
/// Returns a human-readable description of every differing counter and
/// unmatched cell (or of an unreadable/invalid baseline file, or a run at
/// another scale). On success, returns a one-line summary for the log.
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
    let find = |cells: &[PerfCell], of: &PerfCell| {
        cells.iter().position(|c| c.engine == of.engine && c.workload == of.workload)
    };
    let mut failures = Vec::new();
    for base in &baseline.cells {
        let Some(i) = find(&report.cells, base) else {
            failures.push(format!(
                "cell {}/{} present in the baseline but missing from the fresh report",
                base.engine, base.workload
            ));
            continue;
        };
        let fresh = &report.cells[i];
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
    for fresh in report.cells.iter().filter(|c| find(&baseline.cells, c).is_none()) {
        failures.push(format!(
            "cell {}/{} present in the fresh report but missing from the baseline",
            fresh.engine, fresh.workload
        ));
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

    // This harness measures no time. What its cells do not cover is
    // checked where it lives: masked N16 search == binary search in
    // `masked_equals_binary_exhaustively`, splits on steep skew in
    // `hot_buckets_split_then_remerge_after_cooling`, and no steals with
    // stealing off in `splitting_runs_are_identical_across_threads_and_stealing`.
    #[test]
    fn harness_counts_every_cell() {
        let scale =
            Scale { keys: 1_000, ops: 3_000, concurrency: 1_024, seed: 11, ..Scale::smoke() };
        let tmp = std::env::temp_dir().join("dcart-perf-test");
        let r = run(&scale, &tmp);
        assert_eq!(r.cells.len(), 12, "4 executors x 3 workloads");
        for c in &r.cells {
            assert_eq!(c.ops, 3_000);
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
        let json = std::fs::read_to_string(tmp.join("BENCH_ctt.json")).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), 12);
    }

    #[test]
    fn baseline_check_accepts_itself_and_flags_collapses() {
        let scale = Scale { keys: 500, ops: 1_000, concurrency: 1_024, seed: 3, ..Scale::smoke() };
        let tmp = std::env::temp_dir().join("dcart-baseline-test");
        let report = run(&scale, &tmp);
        let path = tmp.join("BENCH_ctt.json");

        // A report always passes against its own counters.
        let summary = check_baseline(&report, &path).expect("self-comparison passes");
        assert!(summary.contains("5 counters of 12 cells"), "{summary}");

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

        // A cell on one side only fails and is named, in either direction.
        let mut renamed = report.clone();
        renamed.cells[4].engine = "CTT-next".to_string();
        let err = check_baseline(&renamed, &path).expect_err("a renamed cell fails");
        let workload = &renamed.cells[4].workload;
        assert!(
            err.contains(&format!("cell CTT-next/{workload} present in the fresh report")),
            "{err}"
        );
        assert!(
            err.contains(&format!(
                "cell {}/{workload} present in the baseline",
                report.cells[4].engine
            )),
            "{err}"
        );
        assert_eq!(err.lines().count(), 2, "{err}");
        let mut extra = report.clone();
        extra.cells.push(PerfCell { engine: "new".to_string(), ..report.cells[0].clone() });
        let err = check_baseline(&extra, &path).expect_err("an unpinned cell fails");
        assert!(err.contains("cell new/"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");

        // Another scale, and a missing baseline, are errors too.
        let bigger = Scale { keys: 600, ..scale };
        assert!(check_baseline(&run(&bigger, &tmp.join("bigger")), &path).is_err());
        assert!(check_baseline(&report, &tmp.join("nope.json")).is_err());
    }

    /// The committed baseline is exactly what the harness writes: it
    /// parses into [`PerfReport`], holds the 12 cells at smoke scale, and
    /// re-serialises to the same bytes. A schema change that forgets to
    /// regenerate the file fails here, not only in the CI step.
    #[test]
    fn committed_baseline_matches_the_report_schema() {
        let text = include_str!("../../../BENCH_baseline.json");
        let baseline: PerfReport = serde_json::from_str(text).expect("baseline parses");
        let smoke = Scale::smoke();
        assert_eq!((baseline.keys, baseline.ops), (smoke.keys, smoke.ops));
        assert_eq!(baseline.cells.len(), 12, "4 executors x 3 workloads");
        assert_eq!(serde_json::to_string_pretty(&baseline).unwrap(), text);
    }
}
