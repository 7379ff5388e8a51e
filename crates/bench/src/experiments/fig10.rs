//! Fig. 10 — throughput–latency curves (paper §IV-B).
//!
//! The paper sweeps the number of in-flight operations on the three
//! real-world workloads and plots throughput against P99 latency: DCART
//! sits down-and-right of every baseline (more throughput at lower tail
//! latency).

use std::path::Path;

use dcart_workloads::{Mix, Workload};
use serde::Serialize;

use crate::matrix::run_engine;
use crate::{write_report, Scale, Table};

/// One point of a throughput–latency curve.
#[derive(Clone, Debug, Serialize)]
pub struct CurvePoint {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// In-flight operations at this point.
    pub concurrency: usize,
    /// Throughput in Mops/s.
    pub throughput_mops: f64,
    /// P99 latency in µs.
    pub p99_us: f64,
}

/// Full Fig. 10 report.
#[derive(Clone, Debug, Serialize)]
pub struct Fig10Report {
    /// All curve points.
    pub points: Vec<CurvePoint>,
}

const CURVE_ENGINES: [&str; 6] = ["ART", "Heart", "SMART", "CuART", "DCART-C", "DCART"];

/// Runs the sweep and writes `fig10.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> Fig10Report {
    println!("== Fig. 10: throughput vs P99 latency (real-world workloads) ==");
    let mut points = Vec::new();
    for workload in Workload::REAL_WORLD {
        println!("-- {} --", workload.name());
        let mut t = Table::new(&["engine", "in-flight ops", "Mops/s", "P99 us"]);
        for engine in CURVE_ENGINES {
            for conc in [4_096usize, 16_384, 65_536, 262_144] {
                let conc = conc.min(scale.ops);
                let mut s = *scale;
                s.concurrency = conc;
                let r = run_engine(engine, workload, &s, Mix::C);
                let p = CurvePoint {
                    engine: engine.to_string(),
                    workload: workload.name().to_string(),
                    concurrency: conc,
                    throughput_mops: r.throughput_mops(),
                    p99_us: r.latency_p99_us,
                };
                t.row(&[
                    engine.to_string(),
                    conc.to_string(),
                    format!("{:.2}", p.throughput_mops),
                    format!("{:.1}", p.p99_us),
                ]);
                points.push(p);
            }
        }
        t.print();
    }
    println!("paper: DCART achieves lower P99 latency at higher throughput than all baselines\n");
    let report = Fig10Report { points };
    write_report(out_dir, "fig10", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcart_dominates_the_curves() {
        let mut scale = Scale::smoke();
        scale.ops = 40_000;
        let tmp = std::env::temp_dir().join("dcart-fig10-test");
        let r = run(&scale, &tmp);
        for workload in Workload::REAL_WORLD {
            let best = |engine: &str| {
                r.points
                    .iter()
                    .filter(|p| p.engine == engine && p.workload == workload.name())
                    .map(|p| p.throughput_mops)
                    .fold(0.0f64, f64::max)
            };
            // DCART's best throughput beats every baseline's best.
            let dcart = best("DCART");
            for baseline in ["ART", "Heart", "SMART", "CuART", "DCART-C"] {
                assert!(
                    dcart > best(baseline),
                    "{}: DCART {dcart} vs {baseline} {}",
                    workload.name(),
                    best(baseline)
                );
            }
            // And its P99 at peak throughput is lower than the baselines'.
            let p99_at_peak = |engine: &str| {
                r.points
                    .iter()
                    .filter(|p| p.engine == engine && p.workload == workload.name())
                    .max_by(|a, b| a.throughput_mops.total_cmp(&b.throughput_mops))
                    .map(|p| p.p99_us)
                    .unwrap()
            };
            assert!(p99_at_peak("DCART") < p99_at_peak("ART"), "{}", workload.name());
        }
    }
}
