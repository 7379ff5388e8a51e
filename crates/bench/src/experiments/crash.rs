//! Crash-point recovery matrix: kill-at-every-interesting-offset proof of
//! crash consistency.
//!
//! For every (workload × SOU thread count) pair the matrix first runs the
//! stream durably and uninterrupted — asserting its digests match the plain
//! (non-durable) executor — while a counting [`CrashInjector`] enumerates
//! how many times each [`CrashSite`] window opens. It then sweeps the
//! matrix: for each site, at the first / middle / last opportunity, a fresh
//! directory gets a run that *dies* exactly there (torn bytes and all),
//! followed by a restart that recovers and finishes. A cell passes only if
//! the planned crash actually fired and the restarted run's answer and
//! final-tree digests are bit-identical to the uninterrupted run. Any
//! divergence aborts the process after `BENCH_crash.json` is written.

use std::path::{Path, PathBuf};

use dcart::{
    execute_ctt, run_durable, tree_digest, CrashInjector, CrashPlan, CrashSite, CttConsumer,
    DcartConfig, DurabilityConfig, ExecOpts, PersistStats,
};
use dcart_workloads::{generate_ops, KeySet, Mix, Op, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// One (workload × threads × site × offset) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct CrashCell {
    /// Workload name, e.g. "IPGEO".
    pub workload: String,
    /// SOU worker threads used for both the crashed and the resumed run.
    pub sou_threads: usize,
    /// Crash site name (kebab-case, from [`CrashSite::name`]).
    pub site: String,
    /// Which opportunity the crash fired at (0-based).
    pub at: u64,
    /// How many times this site's window opened in the uninterrupted run.
    pub opportunities: u64,
    /// Whether the planned crash fired (it must).
    pub crashed: bool,
    /// Batches the crashed run committed before dying.
    pub committed_before_crash: u64,
    /// Torn WAL bytes the restart truncated.
    pub torn_bytes: u64,
    /// Committed batches the restart replayed from the WAL.
    pub replayed_batches: u64,
    /// Whether the restarted run's answer and tree digests are
    /// bit-identical to the uninterrupted run.
    pub digests_match: bool,
    /// Write amplification of the resumed run (persisted / payload bytes).
    pub write_amplification: f64,
}

/// Full crash-matrix report (`BENCH_crash.json`).
#[derive(Clone, Debug, Serialize)]
pub struct CrashReport {
    /// All matrix cells.
    pub cells: Vec<CrashCell>,
    /// Cells whose digests diverged (must be zero; the run panics
    /// otherwise).
    pub divergences: usize,
    /// Cells whose planned crash never fired (must be zero).
    pub misfires: usize,
    /// Persistence-traffic accounting summed over every cell.
    pub persist_total: PersistStats,
}

/// Caps so the matrix stays minutes even at the `full` preset — each cell
/// is two complete runs and there are ~90 cells.
fn matrix_scale(scale: &Scale) -> (usize, usize, usize) {
    (scale.keys.min(20_000), scale.ops.min(60_000), scale.concurrency.min(8_192))
}

struct Sink;
impl CttConsumer for Sink {}

/// Uninterrupted digests straight from the executor (no durability layer).
fn plain_reference(
    keys: &KeySet,
    ops: &[Op],
    config: &DcartConfig,
    batch: usize,
    opts: &ExecOpts,
) -> (u64, u64) {
    let (tree, stats, _) =
        execute_ctt(keys, ops, config, batch, opts, &mut Sink).expect("reference execution");
    (stats.answer_digest, tree_digest(&tree))
}

fn cell_dir(root: &Path, wname: &str, threads: usize, site: CrashSite, at: u64) -> PathBuf {
    root.join(format!("{wname}-t{threads}-{}-{at}", site.name()))
}

/// First / middle / last opportunity of a site (0-based), deduplicated.
fn offsets(opportunities: u64) -> Vec<u64> {
    let last = opportunities.saturating_sub(1);
    let mut offs = vec![0, last / 2, last];
    offs.sort_unstable();
    offs.dedup();
    offs
}

/// Runs the crash-point matrix and writes `BENCH_crash.json`.
///
/// # Panics
///
/// Panics if any cell's planned crash fails to fire, or if any restarted
/// run's digests diverge from the uninterrupted run — the report is
/// written first so the failing cell can be inspected.
pub fn run(scale: &Scale, out_dir: &Path) -> CrashReport {
    println!("== Crash matrix: recovery must be digest-identical at every crash point ==");
    let (n_keys, n_ops, batch) = matrix_scale(scale);
    let workloads =
        [(Workload::Ipgeo, "IPGEO"), (Workload::Dict, "DICT"), (Workload::DenseInt, "DENSE-INT")];
    let scratch = std::env::temp_dir().join(format!("dcart-crash-matrix-{}", scale.seed));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut cells: Vec<(CrashCell, PersistStats)> = Vec::new();
    for (workload, wname) in workloads {
        let config = DcartConfig::default().scaled_for_keys(n_keys);
        let keys = workload.generate(n_keys, scale.seed);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: n_ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
        );
        let dur_of = |dir: PathBuf| DurabilityConfig { dir, checkpoint_every: 3 };

        for threads in [1usize, 2] {
            // The thread count is the matrix's own axis; the rest of the
            // execution options (the claim order) come from the command line.
            let opts = ExecOpts { threads, ..scale.exec };
            // Uninterrupted durable run: establishes the reference digests
            // and counts every site's crash opportunities.
            let (plain_answer, plain_tree) = plain_reference(&keys, &ops, &config, batch, &opts);
            let ref_dir = scratch.join(format!("{wname}-t{threads}-reference"));
            let mut counting = CrashInjector::counting();
            let reference =
                run_durable(&keys, &ops, &config, batch, &opts, &dur_of(ref_dir), &mut counting)
                    .expect("uninterrupted durable run");
            assert_eq!(reference.crashed, None);
            assert_eq!(
                (reference.answer_digest, reference.tree_digest),
                (plain_answer, plain_tree),
                "{wname} t{threads}: durable run diverged from the plain executor"
            );

            let mut plans: Vec<(CrashSite, u64, u64)> = Vec::new();
            for site in CrashSite::ALL {
                let opps = counting.opportunities(site);
                assert!(opps > 0, "{wname} t{threads}: site {} never opened", site.name());
                for at in offsets(opps) {
                    plans.push((site, at, opps));
                }
            }

            let done = crate::parallel::par_map(scale.jobs, plans, |(site, at, opps)| {
                let dir = cell_dir(&scratch, wname, threads, site, at);
                let dur = dur_of(dir);
                let seed = scale.seed ^ (at << 8) ^ site.index() as u64;
                let mut crash = CrashInjector::for_plan(CrashPlan { site, at, seed });
                let crashed = run_durable(&keys, &ops, &config, batch, &opts, &dur, &mut crash)
                    .expect("injected crashes are Ok outcomes, real errors are not");
                // Restart: recover from the directory and run to completion.
                let mut none = CrashInjector::counting();
                let resumed = run_durable(&keys, &ops, &config, batch, &opts, &dur, &mut none)
                    .expect("restart after crash");
                let mut persist = crashed.persist;
                persist.accumulate(&resumed.persist);
                let cell = CrashCell {
                    workload: wname.to_string(),
                    sou_threads: threads,
                    site: site.name().to_string(),
                    at,
                    opportunities: opps,
                    crashed: crashed.crashed == Some(site),
                    committed_before_crash: crashed.batches_committed,
                    torn_bytes: resumed.persist.torn_bytes_truncated,
                    replayed_batches: resumed.persist.replayed_batches,
                    digests_match: resumed.crashed.is_none()
                        && resumed.answer_digest == plain_answer
                        && resumed.tree_digest == plain_tree,
                    write_amplification: resumed.persist.write_amplification(),
                };
                (cell, persist)
            });
            cells.extend(done);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut persist_total = PersistStats::default();
    for (_, p) in &cells {
        persist_total.accumulate(p);
    }
    let cells: Vec<CrashCell> = cells.into_iter().map(|(c, _)| c).collect();

    let mut t = Table::new(&[
        "workload",
        "threads",
        "site",
        "at",
        "opps",
        "committed",
        "torn B",
        "replayed",
        "match",
    ]);
    for c in &cells {
        t.row(&[
            c.workload.clone(),
            c.sou_threads.to_string(),
            c.site.clone(),
            format!("{}/{}", c.at, c.opportunities),
            c.opportunities.to_string(),
            c.committed_before_crash.to_string(),
            c.torn_bytes.to_string(),
            c.replayed_batches.to_string(),
            if c.crashed && c.digests_match { "ok".into() } else { "FAIL".into() },
        ]);
    }
    t.print();
    println!();

    let divergences = cells.iter().filter(|c| !c.digests_match).count();
    let misfires = cells.iter().filter(|c| !c.crashed).count();
    let report = CrashReport { cells, divergences, misfires, persist_total };
    write_report(out_dir, "BENCH_crash", &report);

    // Enforce the contract only after the report is on disk.
    assert_eq!(report.misfires, 0, "a planned crash never fired");
    assert_eq!(report.divergences, 0, "crash recovery changed answers or tree state");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_matrix_recovers_every_cell_at_smoke_scale() {
        let scale = Scale { seed: 77, ..Scale::smoke() };
        let tmp = std::env::temp_dir().join("dcart-crash-test");
        // `run` already asserts firing + digest identity per cell.
        let r = run(&scale, &tmp);
        assert_eq!(r.divergences, 0);
        assert_eq!(r.misfires, 0);
        // 3 workloads × 2 thread counts × 5 sites × ≥1 offset.
        assert!(r.cells.len() >= 30, "expected a full matrix, got {}", r.cells.len());
        assert!(
            r.cells.iter().any(|c| c.torn_bytes > 0),
            "at least one cell must exercise torn-tail truncation"
        );
        assert!(
            r.cells.iter().any(|c| c.replayed_batches > 0),
            "at least one cell must exercise WAL replay"
        );
        let sites: std::collections::BTreeSet<&str> =
            r.cells.iter().map(|c| c.site.as_str()).collect();
        assert_eq!(sites.len(), 5, "all five crash sites covered: {sites:?}");
    }
}
