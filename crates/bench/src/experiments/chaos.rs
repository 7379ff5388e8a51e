//! Differential chaos suite: correctness under injected faults.
//!
//! Every workload runs once fault-free to establish reference digests, then
//! once per cell of the fault matrix (five fault classes × two intensities,
//! plus an everything-at-once cell). A cell passes only if its answer and
//! final-tree digests are bit-identical to the fault-free run, faults were
//! actually injected, and the matching recovery counters moved. Any
//! divergence aborts the process after the report is written — the CI
//! `chaos-smoke` job runs this at fixed seeds and fails on the panic.

use std::path::Path;

use dcart::{DcartAccel, DcartConfig};
use dcart_baselines::{IndexEngine, RunConfig, RunReport};
use dcart_engine::{FaultPlan, RecoveryStats};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// One (workload × fault × intensity) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosCell {
    /// Workload name, e.g. "IPGEO".
    pub workload: String,
    /// Fault class, e.g. "hbm-transient".
    pub fault: String,
    /// "low" or "high".
    pub intensity: String,
    /// Runtime in seconds.
    pub time_s: f64,
    /// Runtime relative to the fault-free run of the same workload.
    pub slowdown: f64,
    /// Whether answer and tree digests match the fault-free run.
    pub answers_match: bool,
    /// Faults injected in the class under test.
    pub injected: u64,
    /// Recovery actions taken for the class under test.
    pub recoveries: u64,
    /// Full recovery/degradation counter block.
    pub recovery: RecoveryStats,
}

/// Full chaos report (`BENCH_chaos.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ChaosReport {
    /// All matrix cells, grouped by workload.
    pub cells: Vec<ChaosCell>,
    /// Number of cells whose digests diverged from the fault-free run
    /// (must be zero; the run panics otherwise).
    pub divergences: usize,
}

/// The fault matrix: five classes at two intensities each, plus a combined
/// cell that also takes an SOU out. Each plan gets its own seed so cells
/// draw independent fault streams.
fn fault_matrix(base_seed: u64) -> Vec<(&'static str, &'static str, FaultPlan)> {
    let mut out = Vec::new();
    let mut seed = base_seed;
    let mut plan = |f: fn(&mut FaultPlan)| {
        seed += 1;
        let mut p = FaultPlan { seed, ..FaultPlan::none() };
        f(&mut p);
        p
    };
    out.push(("hbm-transient", "low", plan(|p| p.hbm_transient_rate = 0.02)));
    out.push(("hbm-transient", "high", plan(|p| p.hbm_transient_rate = 0.25)));
    out.push(("shortcut-corrupt", "low", plan(|p| p.shortcut_corrupt_rate = 0.05)));
    out.push(("shortcut-corrupt", "high", plan(|p| p.shortcut_corrupt_rate = 0.4)));
    out.push(("evict-storm", "low", plan(|p| p.evict_storm_rate = 0.5)));
    out.push(("evict-storm", "high", plan(|p| p.evict_storm_rate = 1.0)));
    out.push((
        "pipeline-stall",
        "low",
        plan(|p| {
            p.pipeline_stall_rate = 0.02;
            p.pipeline_stall_cycles = 16;
        }),
    ));
    out.push((
        "pipeline-stall",
        "high",
        plan(|p| {
            p.pipeline_stall_rate = 0.2;
            p.pipeline_stall_cycles = 64;
        }),
    ));
    out.push(("queue-overflow", "low", plan(|p| p.queue_overflow_rate = 0.5)));
    out.push(("queue-overflow", "high", plan(|p| p.queue_overflow_rate = 1.0)));
    out.push((
        "combined",
        "high",
        plan(|p| {
            p.hbm_transient_rate = 0.1;
            p.shortcut_corrupt_rate = 0.1;
            p.evict_storm_rate = 0.5;
            p.pipeline_stall_rate = 0.05;
            p.pipeline_stall_cycles = 32;
            p.sou_outage_rate = 0.5;
            p.queue_overflow_rate = 0.5;
        }),
    ));
    out
}

/// Injected-fault count for the class a cell stresses.
fn injected_of(fault: &str, r: &RecoveryStats) -> u64 {
    match fault {
        "hbm-transient" => r.hbm_transient_errors,
        "shortcut-corrupt" => r.shortcut_corruptions,
        "evict-storm" => r.evict_storms,
        "pipeline-stall" => r.pipeline_stalls,
        "queue-overflow" => r.queue_overflows,
        _ => r.total_injected(),
    }
}

/// Recovery-action count for the class a cell stresses.
fn recoveries_of(fault: &str, r: &RecoveryStats) -> u64 {
    match fault {
        "hbm-transient" => r.hbm_retries + r.hbm_failovers,
        "shortcut-corrupt" => r.shortcut_fallbacks + r.shortcut_disables,
        "evict-storm" => r.storm_evictions,
        "pipeline-stall" => r.pipeline_stall_cycles,
        "queue-overflow" => r.backpressure_cycles,
        _ => r.total_recoveries(),
    }
}

/// Runs the full differential matrix and writes `BENCH_chaos.json`.
///
/// # Panics
///
/// Panics if any cell's answers diverge from the fault-free run, if a cell
/// injected no faults, or if its recovery counters stayed at zero — the
/// report is written first so the failing cell can be inspected.
pub fn run(scale: &Scale, out_dir: &Path) -> ChaosReport {
    println!("== Chaos: answers under injected faults must match fault-free runs ==");
    let workloads =
        [(Workload::Ipgeo, "IPGEO"), (Workload::Dict, "DICT"), (Workload::DenseInt, "DENSE-INT")];
    let mut t = Table::new(&[
        "workload",
        "fault",
        "intensity",
        "time s",
        "slowdown",
        "injected",
        "recoveries",
        "match",
    ]);
    let mut cells = Vec::new();

    for (workload, wname) in workloads {
        let cfg = DcartConfig::default().scaled_for_keys(scale.keys);
        let keys = workload.generate(scale.keys, scale.seed);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
        );
        let run_cfg = RunConfig { concurrency: scale.concurrency };

        // Fault-free reference.
        let mut engine = DcartAccel::new(cfg.with_auto_prefix_skip(&keys)).with_exec(scale.exec);
        let base: RunReport = engine.run(&keys, &ops, &run_cfg);
        let base_details = engine.last_details().clone();
        assert_eq!(
            base_details.recovery,
            RecoveryStats::default(),
            "fault-free run must not count recoveries"
        );

        let faulted = crate::parallel::par_map(
            scale.jobs,
            fault_matrix(scale.seed),
            |(fault, intensity, plan)| {
                let mut cfg = cfg.with_auto_prefix_skip(&keys);
                cfg.faults = plan;
                let mut engine = DcartAccel::new(cfg).with_exec(scale.exec);
                let r: RunReport = engine.run(&keys, &ops, &run_cfg);
                let d = engine.last_details();
                ChaosCell {
                    workload: wname.to_string(),
                    fault: fault.to_string(),
                    intensity: intensity.to_string(),
                    time_s: r.time_s,
                    slowdown: r.time_s / base.time_s,
                    answers_match: d.answer_digest == base_details.answer_digest
                        && d.tree_digest == base_details.tree_digest,
                    injected: injected_of(fault, &d.recovery),
                    recoveries: recoveries_of(fault, &d.recovery),
                    recovery: d.recovery,
                }
            },
        );
        cells.extend(faulted);
    }

    for c in &cells {
        t.row(&[
            c.workload.clone(),
            c.fault.clone(),
            c.intensity.clone(),
            format!("{:.5}", c.time_s),
            format!("{:.2}x", c.slowdown),
            c.injected.to_string(),
            c.recoveries.to_string(),
            if c.answers_match { "ok".to_string() } else { "DIVERGED".to_string() },
        ]);
    }
    t.print();
    println!();

    let divergences = cells.iter().filter(|c| !c.answers_match).count();
    let report = ChaosReport { cells, divergences };
    write_report(out_dir, "BENCH_chaos", &report);

    // Enforce the differential contract only after the report is on disk.
    assert_eq!(report.divergences, 0, "fault injection changed query answers");
    for c in &report.cells {
        assert!(c.injected > 0, "{}/{}/{}: no faults injected", c.workload, c.fault, c.intensity);
        assert!(
            c.recoveries > 0,
            "{}/{}/{}: no recovery recorded",
            c.workload,
            c.fault,
            c.intensity
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_preserves_answers_at_smoke_scale() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-chaos-test");
        // `run` already asserts the differential contract per cell.
        let r = run(&scale, &tmp);
        assert_eq!(r.divergences, 0);
        // 3 workloads × (5 classes × 2 intensities + 1 combined).
        assert_eq!(r.cells.len(), 33);
        let combined = r
            .cells
            .iter()
            .find(|c| c.fault == "combined" && c.workload == "IPGEO")
            .expect("combined cell present");
        assert!(combined.recovery.sou_outages > 0, "combined cell takes an SOU out");
        assert!(combined.slowdown >= 1.0, "faults never speed a run up");
    }
}
