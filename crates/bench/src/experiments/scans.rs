//! Range-scan extension experiment (not a paper exhibit).
//!
//! The paper's related-work section argues tree indexes earn their keep on
//! range queries (§V); its evaluation nevertheless uses point operations
//! only. This experiment adds range scans to the mix (a share of reads
//! becomes a 10–100-key scan) and compares the engines: scans multiply the
//! node fetches per operation, which stresses exactly the mechanisms DCART
//! adds (coalesced traversal, on-chip residency).

use std::path::Path;

use dcart_workloads::{Mix, Workload};
use serde::Serialize;

use crate::matrix::run_engine;
use crate::{write_report, Scale, Table};

/// One engine × scan-share measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ScanPoint {
    /// Engine name.
    pub engine: String,
    /// Fraction of reads that are scans.
    pub scan_share: f64,
    /// Runtime in seconds.
    pub time_s: f64,
    /// Throughput in Mops/s.
    pub throughput_mops: f64,
    /// Nodes fetched per operation.
    pub visits_per_op: f64,
}

/// Full scan-extension report.
#[derive(Clone, Debug, Serialize)]
pub struct ScanReport {
    /// All measurements.
    pub points: Vec<ScanPoint>,
}

/// Runs the scan sweep on IPGEO and writes `scans.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> ScanReport {
    println!("== Extension: range scans in the mix (IPGEO, base mix C) ==");
    let mut points = Vec::new();
    let mut t = Table::new(&["engine", "scan share %", "time s", "Mops/s", "visits/op"]);
    for engine in ["ART", "SMART", "DCART"] {
        for share in [0.0f64, 0.1, 0.3] {
            let mix = Mix::C.with_scans(share);
            let r = run_engine(engine, Workload::Ipgeo, scale, mix);
            let p = ScanPoint {
                engine: engine.to_string(),
                scan_share: share,
                time_s: r.time_s,
                throughput_mops: r.throughput_mops(),
                visits_per_op: r.counters.nodes_traversed as f64 / r.counters.ops.max(1) as f64,
            };
            t.row(&[
                engine.to_string(),
                format!("{:.0}", share * 100.0),
                format!("{:.5}", p.time_s),
                format!("{:.2}", p.throughput_mops),
                format!("{:.2}", p.visits_per_op),
            ]);
            points.push(p);
        }
    }
    t.print();
    println!("(extension beyond the paper: its mixes are point ops only)\n");
    let report = ScanReport { points };
    write_report(out_dir, "scans", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_amplify_visits_and_dcart_still_wins() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-scans-test");
        let r = run(&scale, &tmp);
        let get = |e: &str, share: f64| {
            r.points.iter().find(|p| p.engine == e && (p.scan_share - share).abs() < 1e-9).unwrap()
        };
        // Scans multiply per-op node fetches on the operation-centric ART.
        assert!(get("ART", 0.3).visits_per_op > 2.0 * get("ART", 0.0).visits_per_op);
        // Scans cost every engine time.
        for e in ["ART", "SMART", "DCART"] {
            assert!(get(e, 0.3).time_s > get(e, 0.0).time_s, "{e}");
        }
        // DCART keeps a healthy lead even at 30 % scans.
        let speedup = get("SMART", 0.3).time_s / get("DCART", 0.3).time_s;
        assert!(speedup > 5.0, "DCART vs SMART with scans: {speedup}");
    }
}
