//! Durability soak: repeated crash/recover cycles under active chaos
//! faults.
//!
//! Where the crash matrix proves each crash *site* in isolation, the soak
//! drives one long stream through an unbounded sequence of cycles: every
//! cycle runs durably with the PR-2 fault plan active (HBM transients,
//! shortcut corruption, evict storms, pipeline stalls, queue overflows)
//! and a planned crash that rotates through all five [`CrashSite`]s. After
//! each simulated death the recovered state's cumulative answer digest is
//! checked against a fault-free reference trace at the exact batch the WAL
//! says was last durable — a digest check every checkpoint interval, not
//! just at the end. The run finishes when a cycle completes the stream,
//! and the final answer/tree digests must be bit-identical to the
//! fault-free, crash-free, non-durable reference.

use std::path::Path;

use dcart::{
    execute_ctt, fold_digest, run_durable, CrashInjector, CrashPlan, CrashSite, CttConsumer,
    CttOpEvent, DcartConfig, DurabilityConfig, DurableLog, ExecOpts, FaultPlan, Opened,
    PersistStats,
};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// One crash/recover cycle of the soak.
#[derive(Clone, Debug, Serialize)]
pub struct SoakCycle {
    /// Cycle index (0-based).
    pub cycle: u64,
    /// Crash site planned for this cycle (`None` once the stream finished).
    pub site: Option<String>,
    /// Whether the planned crash fired (the last cycle completes instead).
    pub crashed: bool,
    /// Batches durable after this cycle (recovered `next_seq`).
    pub durable_batches: u64,
    /// Torn WAL bytes truncated on the recovery that followed.
    pub torn_bytes: u64,
    /// Whether the recovered cumulative answer digest matched the
    /// fault-free reference trace at `durable_batches`.
    pub digest_check: bool,
}

/// Full soak report (`BENCH_soak.json`).
#[derive(Clone, Debug, Serialize)]
pub struct SoakReport {
    /// Total batches in the stream.
    pub batches: u64,
    /// Operations per batch.
    pub batch_size: usize,
    /// Crash/recover cycles survived before the stream completed.
    pub cycles: u64,
    /// Mid-stream digest checks that passed (must equal `cycles`).
    pub checks_passed: u64,
    /// Whether the final digests matched the fault-free reference.
    pub final_match: bool,
    /// Per-cycle details.
    pub trace: Vec<SoakCycle>,
    /// Persistence traffic accumulated across every cycle.
    pub persist: PersistStats,
}

/// Records the cumulative answer digest at every batch boundary, so
/// recovery points mid-stream can be checked, not just the final state.
#[derive(Default)]
struct DigestTrace {
    digest: u64,
    per_batch: Vec<u64>,
}

impl CttConsumer for DigestTrace {
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        self.digest = fold_digest(self.digest, ev.answer);
    }
    fn batch_end(&mut self, _index: usize) {
        self.per_batch.push(self.digest);
    }
}

/// The PR-2 combined fault plan at soak intensity.
fn soak_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        hbm_transient_rate: 0.05,
        shortcut_corrupt_rate: 0.1,
        evict_storm_rate: 0.5,
        pipeline_stall_rate: 0.05,
        pipeline_stall_cycles: 16,
        queue_overflow_rate: 0.5,
        ..FaultPlan::none()
    }
}

/// Runs the soak for `batches` batches at `seed` and writes
/// `BENCH_soak.json`.
///
/// # Panics
///
/// Panics if any mid-stream digest check fails, if the final digests
/// diverge from the fault-free reference, or if the soak fails to make
/// forward progress — the report is written first where possible.
pub fn run(scale: &Scale, out_dir: &Path, batches: u64, seed: u64) -> SoakReport {
    println!(
        "== Soak: {batches} batches through rotating crash/recover cycles under chaos faults =="
    );
    let n_keys = scale.keys.min(20_000);
    let batch_size = scale.concurrency.min(4_096);
    // Two SOU threads always; the claim order as the command line says.
    let opts = ExecOpts { threads: 2, ..scale.exec };
    let n_ops = (batches as usize) * batch_size;

    let keys = Workload::Ipgeo.generate(n_keys, seed);
    let ops = generate_ops(&keys, &OpStreamConfig { count: n_ops, mix: Mix::C, theta: 0.99, seed });
    let clean = DcartConfig::default().scaled_for_keys(n_keys);
    let mut faulted = clean;
    faulted.faults = soak_faults(seed ^ 0x50AC);

    // Fault-free, non-durable reference with a digest at every batch
    // boundary (the chaos invariant makes it comparable to faulted runs).
    let mut trace = DigestTrace::default();
    let (ref_tree, ref_stats, _) = execute_ctt(&keys, &ops, &clean, batch_size, &opts, &mut trace)
        .expect("reference execution");
    let ref_tree_digest = dcart::tree_digest(&ref_tree);
    let ref_per_batch = trace.per_batch;

    // What the durable runs seed their tree with, for the opens between
    // them.
    let pairs: Vec<_> = keys.keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let dir = std::env::temp_dir().join(format!("dcart-soak-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let dur = DurabilityConfig { dir: dir.clone(), checkpoint_every: 3 };

    let mut cycles_trace: Vec<SoakCycle> = Vec::new();
    let mut persist = PersistStats::default();
    let mut checks_passed = 0u64;
    let mut final_outcome = None;
    // Each cycle either crashes (bounded by sites × offsets) or finishes;
    // the cap only guards against a livelock bug in the layer under test.
    let max_cycles = batches * 16 + 64;
    for cycle in 0..max_cycles {
        let site = CrashSite::ALL[(cycle % CrashSite::ALL.len() as u64) as usize];
        // Push the crash deeper into the run as cycles accumulate so the
        // soak makes forward progress while still dying mid-stream.
        let at = 1 + cycle % 3;
        let mut crash = CrashInjector::for_plan(CrashPlan { site, at, seed: seed ^ cycle });
        let out = run_durable(&keys, &ops, &faulted, batch_size, &opts, &dur, &mut crash)
            .expect("soak cycle");
        persist.accumulate(&out.persist);

        if out.crashed.is_none() {
            final_outcome = Some(out);
            cycles_trace.push(SoakCycle {
                cycle,
                site: None,
                crashed: false,
                durable_batches: batches,
                torn_bytes: 0,
                digest_check: true,
            });
            break;
        }

        // Simulated death: open the directory and check the mid-stream
        // digest against the reference trace at the last durable batch.
        let Opened { log, session, .. } =
            DurableLog::open(&dir, &pairs, &faulted, &opts, batch_size)
                .expect("recovery after soak crash");
        let durable_batches = log.next_seq();
        let expected = match durable_batches {
            0 => 0,
            n => *ref_per_batch
                .get(n as usize - 1)
                .unwrap_or_else(|| panic!("recovered past the stream: batch {n}")),
        };
        let check = session.answer_digest() == expected;
        if check {
            checks_passed += 1;
        }
        cycles_trace.push(SoakCycle {
            cycle,
            site: Some(site.name().to_string()),
            crashed: true,
            durable_batches,
            torn_bytes: log.persist().torn_bytes_truncated,
            digest_check: check,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    let final_outcome = final_outcome.expect("soak never completed the stream");
    let final_match = final_outcome.answer_digest == ref_stats.answer_digest
        && final_outcome.tree_digest == ref_tree_digest;
    let cycles = cycles_trace.iter().filter(|c| c.crashed).count() as u64;

    let mut t = Table::new(&["cycle", "site", "durable", "torn B", "digest"]);
    for c in &cycles_trace {
        t.row(&[
            c.cycle.to_string(),
            c.site.clone().unwrap_or_else(|| "(completed)".into()),
            format!("{}/{batches}", c.durable_batches),
            c.torn_bytes.to_string(),
            if c.digest_check { "ok".into() } else { "FAIL".into() },
        ]);
    }
    t.print();
    println!();

    let report = SoakReport {
        batches,
        batch_size,
        cycles,
        checks_passed,
        final_match,
        trace: cycles_trace,
        persist,
    };
    write_report(out_dir, "BENCH_soak", &report);

    assert_eq!(
        report.checks_passed, report.cycles,
        "a mid-stream digest check failed after recovery"
    );
    assert!(report.final_match, "soak final digests diverged from the fault-free reference");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_survives_crash_cycles_at_small_n() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-soak-test");
        // `run` already asserts every digest check and the final identity.
        let r = run(&scale, &tmp, 8, 1234);
        assert!(r.final_match);
        assert!(r.cycles >= 1, "the soak must actually crash at least once");
        assert_eq!(r.checks_passed, r.cycles);
        assert!(r.persist.replayed_batches > 0 || r.persist.checkpoints > 0);
    }
}
