//! Fig. 3 — operation distribution of the real-world workloads
//! (paper §II-C).
//!
//! The paper plots operations per key prefix (0x00–0xFF) for IPGEO, DICT,
//! and EA, and reports two observations: hot prefixes draw tens of
//! thousands of operations (temporal similarity), and >96.65 % of tree
//! traversals touch only 5 % of ART nodes (spatial similarity).

use std::collections::BTreeMap;
use std::path::Path;

use dcart_baselines::execute_with_traces;
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// Fig. 3 report for one workload.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Workload {
    /// Workload name.
    pub workload: String,
    /// Operations per first key byte (the paper's x-axis).
    pub ops_per_prefix: Vec<u64>,
    /// The hottest prefix and its op count.
    pub hottest: (u8, u64),
    /// Median per-prefix op count over non-empty prefixes.
    pub median_nonzero: u64,
    /// Fraction of node visits landing on the hottest 5 % of nodes.
    pub top5pct_visit_share: f64,
}

/// Full Fig. 3 report.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Report {
    /// One entry per real-world workload.
    pub workloads: Vec<Fig3Workload>,
}

fn analyze(workload: Workload, scale: &Scale) -> Fig3Workload {
    let keys = workload.generate(scale.keys, scale.seed);
    let ops = generate_ops(
        &keys,
        &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
    );

    let mut ops_per_prefix = vec![0u64; 256];
    for op in &ops {
        ops_per_prefix[usize::from(op.key.as_bytes()[0])] += 1;
    }

    // Node-visit skew from the actual traversals.
    let mut visits_per_node: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total_visits = 0u64;
    execute_with_traces(&keys, &ops, |op| {
        for v in &op.trace.visits {
            *visits_per_node.entry(v.node.index()).or_insert(0) += 1;
            total_visits += 1;
        }
    });
    let mut counts: Vec<u64> = visits_per_node.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top = (counts.len() / 20).max(1);
    let top_visits: u64 = counts[..top].iter().sum();
    let top5pct_visit_share = top_visits as f64 / total_visits.max(1) as f64;

    let hottest = ops_per_prefix
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(p, &c)| (p as u8, c))
        .expect("256 prefixes");
    let mut nonzero: Vec<u64> = ops_per_prefix.iter().copied().filter(|&c| c > 0).collect();
    nonzero.sort_unstable();
    let median_nonzero = nonzero.get(nonzero.len() / 2).copied().unwrap_or(0);

    Fig3Workload {
        workload: workload.name().to_string(),
        ops_per_prefix,
        hottest,
        median_nonzero,
        top5pct_visit_share,
    }
}

/// Runs the Fig. 3 analysis and writes `fig3.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> Fig3Report {
    println!("== Fig. 3: operation distribution of the real-world workloads ==");
    let mut t = Table::new(&[
        "workload",
        "hottest prefix",
        "ops@hottest",
        "median ops/prefix",
        "top-5% node share %",
    ]);
    let workloads =
        crate::parallel::par_map(scale.jobs, Workload::REAL_WORLD.to_vec(), |w| analyze(w, scale));
    for a in &workloads {
        t.row(&[
            a.workload.clone(),
            format!("0x{:02x}", a.hottest.0),
            a.hottest.1.to_string(),
            a.median_nonzero.to_string(),
            format!("{:.2}", a.top5pct_visit_share * 100.0),
        ]);
    }
    t.print();
    println!(
        "paper: IPGEO's 0x67 prefix draws >24,000 ops; >96.65 % of traversals touch 5 % of nodes\n"
    );
    let report = Fig3Report { workloads };
    write_report(out_dir, "fig3", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_statistics_match_paper_direction() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-fig3-test");
        let r = run(&scale, &tmp);
        assert_eq!(r.workloads.len(), 3);
        for w in &r.workloads {
            // Spatial similarity: the hot 5 % of nodes absorb the large
            // majority of traversals (paper: >96.65 %).
            assert!(
                w.top5pct_visit_share > 0.7,
                "{}: top-5% share {}",
                w.workload,
                w.top5pct_visit_share
            );
            // Temporal similarity: the hottest prefix is a clear spike.
            assert!(
                w.hottest.1 > 4 * w.median_nonzero.max(1),
                "{}: hottest {} vs median {}",
                w.workload,
                w.hottest.1,
                w.median_nonzero
            );
        }
        // IPGEO's spike is the calibrated 0x67 one.
        let ipgeo = &r.workloads[0];
        assert_eq!(ipgeo.hottest.0, 0x67, "IPGEO hottest prefix");
    }
}
