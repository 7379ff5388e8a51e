//! Fig. 6 — the PCU/SOU batch-overlap timeline, rendered.
//!
//! The paper's Fig. 6 shows combining of batch *i+1* hidden under operating
//! of batch *i*. This exhibit runs the accelerator twice (overlap on/off)
//! and draws the resulting schedules as ASCII Gantt rows, one per batch,
//! with the measured cycle savings.

use std::path::Path;

use dcart::{BatchTiming, DcartAccel, DcartConfig};
use dcart_baselines::{IndexEngine, RunConfig};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale};

/// One batch's scheduled intervals (cycles).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ScheduledBatch {
    /// PCU combine start.
    pub pcu_start: u64,
    /// PCU combine end.
    pub pcu_end: u64,
    /// SOU operate start.
    pub sou_start: u64,
    /// SOU operate end.
    pub sou_end: u64,
}

/// Full timeline report.
#[derive(Clone, Debug, Serialize)]
pub struct TimelineReport {
    /// Schedule with overlap enabled (Fig. 6's lower timeline).
    pub overlapped: Vec<ScheduledBatch>,
    /// Schedule without overlap (Fig. 6's upper timeline).
    pub sequential: Vec<ScheduledBatch>,
    /// Total cycles with overlap.
    pub overlapped_cycles: u64,
    /// Total cycles without.
    pub sequential_cycles: u64,
}

/// Rebuilds the schedule from per-batch timings, mirroring the
/// accelerator's own assembly.
fn schedule(batches: &[BatchTiming], overlap: bool) -> Vec<ScheduledBatch> {
    let mut out = Vec::new();
    let mut pcu_done = 0u64;
    let mut sou_end = 0u64;
    for b in batches {
        let (pcu_start, pcu_end, sou_start);
        if overlap {
            pcu_start = pcu_done;
            pcu_end = pcu_done + b.pcu_cycles;
            pcu_done = pcu_end;
            sou_start = pcu_end.max(sou_end);
        } else {
            pcu_start = sou_end;
            pcu_end = pcu_start + b.pcu_cycles;
            sou_start = pcu_end;
        }
        sou_end = sou_start + b.sou_cycles;
        out.push(ScheduledBatch { pcu_start, pcu_end, sou_start, sou_end });
    }
    out
}

fn draw(schedule: &[ScheduledBatch], label: &str) {
    let total = schedule.last().map_or(1, |b| b.sou_end);
    const WIDTH: usize = 64;
    let scale = |c: u64| (c as usize * WIDTH / total as usize).min(WIDTH);
    println!("{label} (total {total} cycles)");
    for (i, b) in schedule.iter().enumerate().take(8) {
        let mut row = vec![' '; WIDTH + 1];
        for cell in row.iter_mut().take(scale(b.pcu_end)).skip(scale(b.pcu_start)) {
            *cell = 'C'; // combining
        }
        for cell in row.iter_mut().take(scale(b.sou_end)).skip(scale(b.sou_start)) {
            *cell = 'O'; // operating
        }
        println!("  batch {i}: |{}|", row.into_iter().collect::<String>());
    }
    if schedule.len() > 8 {
        println!("  ... ({} more batches)", schedule.len() - 8);
    }
}

/// Runs the timeline exhibit and writes `timeline.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> TimelineReport {
    println!("== Fig. 6: overlap of combining (C) and operating (O) ==");
    let keys = Workload::Ipgeo.generate(scale.keys.min(20_000), scale.seed);
    let ops = generate_ops(
        &keys,
        &OpStreamConfig {
            count: scale.ops.min(120_000),
            mix: Mix::C,
            theta: 0.99,
            seed: scale.seed,
        },
    );
    let run_cfg = RunConfig { concurrency: 16_384 };
    let base = DcartConfig::default().scaled_for_keys(keys.len()).with_auto_prefix_skip(&keys);

    // The overlap-on and overlap-off runs are independent cells.
    let mut schedules = crate::parallel::par_map(scale.jobs, vec![true, false], |overlap| {
        let mut cfg = base;
        cfg.overlap_enabled = overlap;
        let mut engine = DcartAccel::new(cfg).with_exec(scale.exec);
        engine.run(&keys, &ops, &run_cfg);
        schedule(&engine.last_details().batches, overlap)
    });
    let sequential = schedules.pop().expect("two cells");
    let overlapped = schedules.pop().expect("two cells");
    let overlapped_cycles = overlapped.last().map_or(0, |b| b.sou_end);
    let sequential_cycles = sequential.last().map_or(0, |b| b.sou_end);

    draw(&sequential, "without overlap");
    println!();
    draw(&overlapped, "with overlap (paper Fig. 6)");
    println!(
        "\noverlap hides {} of {} cycles ({:.1} % saved)\n",
        sequential_cycles.saturating_sub(overlapped_cycles),
        sequential_cycles,
        (1.0 - overlapped_cycles as f64 / sequential_cycles as f64) * 100.0
    );

    let report = TimelineReport { overlapped, sequential, overlapped_cycles, sequential_cycles };
    write_report(out_dir, "timeline", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_schedule_is_legal_and_faster() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-timeline-test");
        let r = run(&scale, &tmp);
        assert!(r.overlapped_cycles < r.sequential_cycles);
        assert_eq!(r.overlapped.len(), r.sequential.len());
        for (i, b) in r.overlapped.iter().enumerate() {
            // A batch operates only after it combines.
            assert!(b.sou_start >= b.pcu_end, "batch {i}");
            // The single PCU never combines two batches at once.
            if i > 0 {
                assert!(b.pcu_start >= r.overlapped[i - 1].pcu_end, "batch {i}");
                // The 16 SOUs process batches in order.
                assert!(b.sou_start >= r.overlapped[i - 1].sou_end, "batch {i}");
            }
        }
        // Overlap actually happens: some batch combines while the previous
        // batch operates.
        let hidden = r.overlapped.windows(2).any(|w| w[1].pcu_start < w[0].sou_end);
        assert!(hidden, "no combining was hidden under operating");
    }
}
