//! Skew sensitivity (extension): how much of DCART's win depends on the
//! paper's similarity premise?
//!
//! The whole design rests on §II-C's observations — operations cluster on
//! few nodes (spatial) within short intervals (temporal). This experiment
//! sweeps the Zipfian skew of the operation stream from near-uniform to
//! hotter-than-YCSB and reports DCART's speedup, shortcut hit rate, and
//! the baselines' contention counts at each point: the mechanisms should
//! visibly engage as skew rises.

use std::path::Path;

use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// One skew measurement.
#[derive(Clone, Debug, Serialize)]
pub struct SkewPoint {
    /// Zipfian theta of the op stream.
    pub theta: f64,
    /// DCART speedup over SMART.
    pub speedup_vs_smart: f64,
    /// DCART shortcut hit rate over all ops.
    pub shortcut_hit_rate: f64,
    /// SMART's lock contentions (the cost skew creates for baselines).
    pub smart_contentions: u64,
    /// DCART's SOU load imbalance (the cost skew creates for DCART).
    pub dcart_imbalance: f64,
}

/// Full skew report.
#[derive(Clone, Debug, Serialize)]
pub struct SkewReport {
    /// Points in ascending theta.
    pub points: Vec<SkewPoint>,
    /// Per-bucket load histogram from one profiled CTT run at the
    /// steepest theta with adaptive sub-sharding on — the skew the splits
    /// reacted to, bucket by bucket.
    pub load: dcart::LoadReport,
}

/// Runs the sweep on IPGEO and writes `skew.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> SkewReport {
    use dcart::{DcartAccel, DcartConfig};
    use dcart_baselines::{CpuBaseline, CpuConfig, IndexEngine, RunConfig};

    println!("== Extension: sensitivity to operation skew (IPGEO, mix C) ==");
    let keys = Workload::Ipgeo.generate(scale.keys, scale.seed);
    let run_cfg = RunConfig { concurrency: scale.concurrency };
    let cpu = CpuConfig::xeon_8468().scaled_for_keys(scale.keys);
    let dcfg = DcartConfig::default().scaled_for_keys(scale.keys).with_auto_prefix_skip(&keys);

    let mut points = Vec::new();
    let mut t = Table::new(&[
        "theta",
        "DCART x SMART",
        "shortcut hit %",
        "SMART contentions",
        "SOU imbalance",
    ]);
    // 1.2 is past the Gray sampler's domain — the tabulated inverse CDF
    // in `Zipfian` covers it — and steep enough to pressure one bucket
    // hard, the regime the adaptive sub-sharding targets.
    for theta in [0.2f64, 0.5, 0.8, 0.99, 1.2] {
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: scale.ops, mix: Mix::C, theta, seed: scale.seed },
        );
        let mut dcart = DcartAccel::new(dcfg).with_exec(scale.exec);
        let d = dcart.run(&keys, &ops, &run_cfg);
        let s = CpuBaseline::smart(cpu).run(&keys, &ops, &run_cfg);
        let p = SkewPoint {
            theta,
            speedup_vs_smart: d.speedup_vs(&s),
            shortcut_hit_rate: d.counters.shortcut_hits as f64 / d.counters.ops.max(1) as f64,
            smart_contentions: s.counters.lock_contentions,
            dcart_imbalance: dcart.last_details().bucket_imbalance,
        };
        t.row(&[
            format!("{theta:.2}"),
            format!("{:.1}", p.speedup_vs_smart),
            format!("{:.1}", p.shortcut_hit_rate * 100.0),
            p.smart_contentions.to_string(),
            format!("{:.2}", p.dcart_imbalance),
        ]);
        points.push(p);
    }
    t.print();

    // The repro-report half of the load-observability satellite: one
    // profiled functional run at the steepest theta with adaptive
    // sub-sharding on (threshold 0.1 — IPGEO's hottest bucket carries
    // ~0.2 of a batch, so the bucket splits; 2 SOU threads — every field
    // below is the same at any thread count and claim order).
    let ops = generate_ops(
        &keys,
        &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 1.2, seed: scale.seed },
    );
    let mut prof_cfg = dcfg;
    prof_cfg.split_threshold = Some(0.1);
    let opts = dcart::ExecOpts { threads: 2, ..dcart::ExecOpts::default() };
    struct NoSink;
    impl dcart::CttConsumer for NoSink {}
    let (_, _, load) = dcart::execute_ctt(&keys, &ops, &prof_cfg, 4_096, &opts, &mut NoSink)
        .expect("the profiled skew run injects no faults");
    let total: u64 = load.buckets.iter().map(|b| b.ops).sum();
    if let Some(hot) = load.buckets.iter().max_by_key(|b| b.ops) {
        println!(
            "per-bucket load at theta 1.20 (adaptive): bucket {} carries {} of {} ops \
             ({:.0} %), split {} time(s), ended with {} sub-shard(s)",
            hot.bucket,
            hot.ops,
            total,
            hot.ops as f64 * 100.0 / total.max(1) as f64,
            hot.splits,
            hot.subs_at_end
        );
    }
    println!("(extension: the paper's premise quantified — less similarity, less to coalesce)\n");
    let report = SkewReport { points, load };
    write_report(out_dir, "skew", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_engages_the_mechanisms() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-skew-test");
        let r = run(&scale, &tmp);
        let first = r.points.first().unwrap(); // near-uniform
        let last = r.points.last().unwrap(); // hotter than YCSB

        // Hot streams hit shortcuts more often (the baseline hit rate is
        // already high at any skew once ops outnumber keys — repetition,
        // not skew, creates most reuse — so the margin is modest).
        assert!(
            last.shortcut_hit_rate > first.shortcut_hit_rate + 0.02,
            "{} -> {}",
            first.shortcut_hit_rate,
            last.shortcut_hit_rate
        );
        // ... and collide the baselines far more often.
        assert!(last.smart_contentions > 2 * first.smart_contentions);
        // DCART's advantage grows with skew (the paper's premise).
        assert!(
            last.speedup_vs_smart > first.speedup_vs_smart,
            "{} -> {}",
            first.speedup_vs_smart,
            last.speedup_vs_smart
        );
        // DCART wins even near-uniform (combining still coalesces paths).
        assert!(first.speedup_vs_smart > 1.0);

        // The load histogram is populated and shows the steep stream
        // actually splitting a hot bucket.
        assert!(!r.load.buckets.is_empty());
        assert!(r.load.buckets.iter().any(|b| b.splits > 0), "theta 1.2 splits a hot bucket");
    }
}
