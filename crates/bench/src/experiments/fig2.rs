//! Fig. 2 — the motivation measurements (paper §II-B).
//!
//! * (a) execution-time breakdown of ART/Heart/SMART: traversal + sync
//!   dominate (>95.82 % for SMART);
//! * (b) redundant traversed-node ratio: 77.8–86.1 %;
//! * (c) cache-line utilization: ~20.2 % on average;
//! * (d) sync share vs number of concurrent operations (IPGEO):
//!   16.2 % → 71.3 %;
//! * (e) throughput vs write ratio (IPGEO): deteriorates with writes.

use std::path::Path;

use dcart_baselines::{CpuBaseline, CpuConfig, IndexEngine, RunConfig};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// Full Fig. 2 report.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Report {
    /// (a)+(b)+(c): per engine × workload summary at the default mix.
    pub matrix: Vec<Fig2Row>,
    /// (d): sync fraction per engine per concurrency level (IPGEO).
    pub sync_vs_concurrency: Vec<(String, usize, f64)>,
    /// (e): throughput (Mops) per engine per mix label (IPGEO).
    pub throughput_vs_mix: Vec<(String, char, f64)>,
}

/// One engine × workload row of Fig. 2(a)–(c).
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Row {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Fraction of time in traversal.
    pub traversal_frac: f64,
    /// Fraction of time in synchronization.
    pub sync_frac: f64,
    /// Fraction of time elsewhere.
    pub other_frac: f64,
    /// Redundant traversed-node ratio (Fig. 2(b)).
    pub redundancy: f64,
    /// Cache-line utilization (Fig. 2(c)).
    pub line_utilization: f64,
}

fn baseline(name: &str, keys: usize) -> CpuBaseline {
    let cpu = CpuConfig::xeon_8468().scaled_for_keys(keys);
    match name {
        "ART" => CpuBaseline::art(cpu),
        "Heart" => CpuBaseline::heart(cpu),
        "SMART" => CpuBaseline::smart(cpu),
        other => panic!("not a CPU baseline: {other}"),
    }
}

/// Runs all five Fig. 2 panels and writes `fig2.json`.
///
/// Each panel's cells fan out over the [`crate::parallel`] worker pool;
/// key sets and op streams shared by several cells are generated once and
/// borrowed by the workers. Collection order is declaration order, so the
/// report is identical at any `--jobs`.
pub fn run(scale: &Scale, out_dir: &Path) -> Fig2Report {
    println!("== Fig. 2: motivation — inefficiencies of the CPU baselines ==");
    let engines = ["ART", "Heart", "SMART"];

    // (a)(b)(c): all six workloads at the default mix.
    let data = crate::parallel::par_map(scale.jobs, Workload::ALL.to_vec(), |w| {
        let keys = w.generate(scale.keys, scale.seed);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
        );
        (keys, ops)
    });
    let cells: Vec<(usize, Workload, &str)> = Workload::ALL
        .iter()
        .enumerate()
        .flat_map(|(wi, &w)| engines.iter().map(move |&e| (wi, w, e)))
        .collect();
    let matrix = crate::parallel::par_map(scale.jobs, cells, |(wi, workload, name)| {
        let (keys, ops) = &data[wi];
        let r = baseline(name, scale.keys).run(
            keys,
            ops,
            &RunConfig { concurrency: scale.concurrency },
        );
        let total = r.breakdown.total_s().max(1e-12);
        Fig2Row {
            engine: name.to_string(),
            workload: workload.name().to_string(),
            traversal_frac: r.breakdown.traversal_s / total,
            sync_frac: r.breakdown.sync_s / total,
            other_frac: (r.breakdown.other_s + r.breakdown.combine_s) / total,
            redundancy: r.counters.redundancy_ratio(),
            line_utilization: r.counters.line_utilization(),
        }
    });
    let mut t = Table::new(&[
        "engine",
        "workload",
        "traversal%",
        "sync%",
        "other%",
        "redundant%",
        "line-util%",
    ]);
    for row in &matrix {
        t.row(&[
            row.engine.clone(),
            row.workload.clone(),
            format!("{:.1}", row.traversal_frac * 100.0),
            format!("{:.1}", row.sync_frac * 100.0),
            format!("{:.1}", row.other_frac * 100.0),
            format!("{:.1}", row.redundancy * 100.0),
            format!("{:.1}", row.line_utilization * 100.0),
        ]);
    }
    t.print();
    println!(
        "paper: SMART traversal+sync > 95.8 %; redundancy 77.8–86.1 %; line utilization ~20.2 %\n"
    );

    // Panels (d) and (e) both run on IPGEO; share its key set.
    let ipgeo_keys = Workload::Ipgeo.generate(scale.keys, scale.seed);
    let ipgeo_ops_c = generate_ops(
        &ipgeo_keys,
        &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
    );

    // (d): sync share vs concurrency on IPGEO.
    println!("-- Fig. 2(d): sync share vs concurrent operations (IPGEO) --");
    let mut concs: Vec<usize> =
        [64usize, 512, 4_096, 32_768, 262_144].into_iter().map(|c| c.min(scale.ops)).collect();
    concs.dedup();
    let cells: Vec<(&str, usize)> =
        engines.iter().flat_map(|&e| concs.iter().map(move |&c| (e, c))).collect();
    let sync_vs_concurrency = crate::parallel::par_map(scale.jobs, cells, |(name, conc)| {
        let r = baseline(name, scale.keys).run(
            &ipgeo_keys,
            &ipgeo_ops_c,
            &RunConfig { concurrency: conc },
        );
        (name.to_string(), conc, r.breakdown.sync_fraction())
    });
    let mut t = Table::new(&["engine", "concurrent ops", "sync share %"]);
    for (name, conc, frac) in &sync_vs_concurrency {
        t.row(&[name.clone(), conc.to_string(), format!("{:.1}", frac * 100.0)]);
    }
    t.print();
    println!("paper: rises from ~16.2 % to 62.1–71.3 % as concurrency grows\n");

    // (e): throughput vs write ratio on IPGEO.
    println!("-- Fig. 2(e): throughput vs write ratio (IPGEO) --");
    let mix_ops = crate::parallel::par_map(scale.jobs, Mix::named().to_vec(), |(label, mix)| {
        let ops = generate_ops(
            &ipgeo_keys,
            &OpStreamConfig { count: scale.ops, mix, theta: 0.99, seed: scale.seed },
        );
        (label, ops)
    });
    let cells: Vec<(&str, usize)> =
        engines.iter().flat_map(|&e| (0..mix_ops.len()).map(move |mi| (e, mi))).collect();
    let throughput_vs_mix = crate::parallel::par_map(scale.jobs, cells, |(name, mi)| {
        let (label, ops) = &mix_ops[mi];
        let r = baseline(name, scale.keys).run(
            &ipgeo_keys,
            ops,
            &RunConfig { concurrency: scale.concurrency },
        );
        (name.to_string(), *label, r.throughput_mops())
    });
    let mut t = Table::new(&["engine", "mix", "throughput Mops/s"]);
    for (name, label, tput) in &throughput_vs_mix {
        t.row(&[name.clone(), label.to_string(), format!("{tput:.2}")]);
    }
    t.print();
    println!("paper: performance deteriorates rapidly as the write ratio increases\n");

    let report = Fig2Report { matrix, sync_vs_concurrency, throughput_vs_mix };
    write_report(out_dir, "fig2", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes_hold_at_smoke_scale() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-fig2-test");
        let r = run(&scale, &tmp);

        // (a) traversal + sync dominate for every CPU baseline.
        for row in &r.matrix {
            assert!(
                row.traversal_frac + row.sync_frac > 0.85,
                "{}/{}: {} + {}",
                row.engine,
                row.workload,
                row.traversal_frac,
                row.sync_frac
            );
            // (b) substantial redundancy under concurrency.
            assert!(
                row.redundancy > 0.4,
                "{}/{} redundancy {}",
                row.engine,
                row.workload,
                row.redundancy
            );
            // (c) poor cache-line utilization.
            assert!(row.line_utilization < 0.45, "{}/{}", row.engine, row.workload);
        }

        // (d) sync share grows with concurrency for ART.
        let art: Vec<f64> = r
            .sync_vs_concurrency
            .iter()
            .filter(|(e, _, _)| e == "ART")
            .map(|(_, _, f)| *f)
            .collect();
        assert!(art.last().unwrap() > art.first().unwrap());

        // (e) 100% write is slower than 100% read for every engine.
        for name in ["ART", "Heart", "SMART"] {
            let read =
                r.throughput_vs_mix.iter().find(|(e, l, _)| e == name && *l == 'A').unwrap().2;
            let write =
                r.throughput_vs_mix.iter().find(|(e, l, _)| e == name && *l == 'E').unwrap().2;
            assert!(write < read, "{name}: write {write} vs read {read}");
        }
    }
}
