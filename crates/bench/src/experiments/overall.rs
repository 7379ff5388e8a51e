//! Figs. 7, 8, 9, 11 — the overall comparison (paper §IV-B): lock
//! contentions, partial-key matches, execution time, and energy for all
//! six engines over all six workloads.

use std::path::Path;

use dcart_workloads::Workload;
use serde::Serialize;

use crate::matrix::find;
use crate::{engine_names, run_matrix, write_report, MatrixEntry, Scale, Table};

/// The paper-reported ranges for the headline ratios (min, max).
pub mod paper_bands {
    /// DCART speedup over ART (Fig. 9).
    pub const SPEEDUP_VS_ART: (f64, f64) = (123.8, 151.7);
    /// DCART speedup over SMART (Fig. 9).
    pub const SPEEDUP_VS_SMART: (f64, f64) = (35.9, 44.2);
    /// DCART speedup over CuART (Fig. 9).
    pub const SPEEDUP_VS_CUART: (f64, f64) = (21.1, 31.2);
    /// DCART energy saving over ART (Fig. 11).
    pub const ENERGY_VS_ART: (f64, f64) = (315.1, 493.5);
    /// DCART energy saving over SMART (Fig. 11).
    pub const ENERGY_VS_SMART: (f64, f64) = (92.7, 148.9);
    /// DCART energy saving over CuART (Fig. 11).
    pub const ENERGY_VS_CUART: (f64, f64) = (71.1, 126.2);
    /// DCART energy saving over DCART-C (Fig. 11).
    pub const ENERGY_VS_DCART_C: (f64, f64) = (48.1, 97.6);
    /// DCART(-C) lock contentions as a fraction of the others' (Fig. 7).
    pub const CONTENTION_FRACTION: (f64, f64) = (0.032, 0.197);
    /// DCART(-C) partial-key matches vs ART (Fig. 8).
    pub const MATCHES_VS_ART: (f64, f64) = (0.032, 0.057);
    /// DCART(-C) partial-key matches vs SMART (Fig. 8).
    pub const MATCHES_VS_SMART: (f64, f64) = (0.065, 0.143);
    /// DCART(-C) partial-key matches vs CuART (Fig. 8).
    pub const MATCHES_VS_CUART: (f64, f64) = (0.088, 0.159);
}

/// Full overall-comparison report.
#[derive(Clone, Debug, Serialize)]
pub struct OverallReport {
    /// The raw matrix (all engines × all workloads).
    pub matrix: Vec<MatrixEntry>,
    /// Per-workload DCART speedups over (ART, SMART, CuART, DCART-C).
    pub speedups: Vec<(String, f64, f64, f64, f64)>,
    /// Per-workload DCART energy savings over (ART, SMART, CuART, DCART-C).
    pub energy_savings: Vec<(String, f64, f64, f64, f64)>,
}

/// Runs the matrix and prints Figs. 7, 8, 9, 11; writes `overall.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> OverallReport {
    println!("== Figs. 7/8/9/11: overall comparison (all engines × all workloads) ==");
    let matrix = run_matrix(&engine_names(), &Workload::ALL, scale);

    // Fig. 7 — lock contentions.
    println!("\n-- Fig. 7: lock contentions --");
    let mut t = Table::new(&[
        "workload",
        "ART",
        "Heart",
        "SMART",
        "CuART",
        "DCART-C",
        "DCART",
        "DCART/ART %",
    ]);
    for w in Workload::ALL {
        let c = |e: &str| find(&matrix, e, w.name()).counters.lock_contentions;
        let ratio = c("DCART") as f64 / c("ART").max(1) as f64;
        t.row(&[
            w.name().to_string(),
            c("ART").to_string(),
            c("Heart").to_string(),
            c("SMART").to_string(),
            c("CuART").to_string(),
            c("DCART-C").to_string(),
            c("DCART").to_string(),
            format!("{:.1}", ratio * 100.0),
        ]);
    }
    t.print();
    println!("paper: DCART(-C) contentions are 3.2–19.7 % of the other solutions'\n");

    // Fig. 8 — partial-key matches.
    println!("-- Fig. 8: partial-key matches --");
    let mut t = Table::new(&[
        "workload",
        "ART",
        "Heart",
        "SMART",
        "CuART",
        "DCART",
        "vs ART %",
        "vs SMART %",
        "vs CuART %",
    ]);
    for w in Workload::ALL {
        let m = |e: &str| find(&matrix, e, w.name()).counters.partial_key_matches;
        let d = m("DCART") as f64;
        t.row(&[
            w.name().to_string(),
            m("ART").to_string(),
            m("Heart").to_string(),
            m("SMART").to_string(),
            m("CuART").to_string(),
            m("DCART").to_string(),
            format!("{:.1}", d / m("ART").max(1) as f64 * 100.0),
            format!("{:.1}", d / m("SMART").max(1) as f64 * 100.0),
            format!("{:.1}", d / m("CuART").max(1) as f64 * 100.0),
        ]);
    }
    t.print();
    println!(
        "paper: DCART(-C) matches are 3.2–5.7 % of ART, 6.5–14.3 % of SMART, 8.8–15.9 % of CuART\n"
    );

    // Fig. 9 — execution time.
    println!("-- Fig. 9: execution time --");
    let mut t = Table::new(&[
        "workload",
        "ART s",
        "Heart s",
        "SMART s",
        "CuART s",
        "DCART-C s",
        "DCART s",
        "x ART",
        "x SMART",
        "x CuART",
    ]);
    let mut speedups = Vec::new();
    for w in Workload::ALL {
        let r = |e: &str| find(&matrix, e, w.name());
        let d = r("DCART");
        let s = (
            w.name().to_string(),
            d.speedup_vs(r("ART")),
            d.speedup_vs(r("SMART")),
            d.speedup_vs(r("CuART")),
            d.speedup_vs(r("DCART-C")),
        );
        t.row(&[
            w.name().to_string(),
            format!("{:.4}", r("ART").time_s),
            format!("{:.4}", r("Heart").time_s),
            format!("{:.4}", r("SMART").time_s),
            format!("{:.4}", r("CuART").time_s),
            format!("{:.4}", r("DCART-C").time_s),
            format!("{:.5}", d.time_s),
            format!("{:.1}", s.1),
            format!("{:.1}", s.2),
            format!("{:.1}", s.3),
        ]);
        speedups.push(s);
    }
    t.print();
    println!(
        "paper: DCART is 123.8–151.7x ART, 35.9–44.2x SMART, 21.1–31.2x CuART; DCART-C only slight\n"
    );

    // Fig. 11 — energy.
    println!("-- Fig. 11: energy consumption --");
    let mut t = Table::new(&[
        "workload",
        "ART J",
        "SMART J",
        "CuART J",
        "DCART-C J",
        "DCART J",
        "x ART",
        "x SMART",
        "x CuART",
        "x DCART-C",
    ]);
    let mut energy_savings = Vec::new();
    for w in Workload::ALL {
        let r = |e: &str| find(&matrix, e, w.name());
        let d = r("DCART");
        let s = (
            w.name().to_string(),
            d.energy_saving_vs(r("ART")),
            d.energy_saving_vs(r("SMART")),
            d.energy_saving_vs(r("CuART")),
            d.energy_saving_vs(r("DCART-C")),
        );
        t.row(&[
            w.name().to_string(),
            format!("{:.2}", r("ART").energy_j),
            format!("{:.2}", r("SMART").energy_j),
            format!("{:.2}", r("CuART").energy_j),
            format!("{:.2}", r("DCART-C").energy_j),
            format!("{:.4}", d.energy_j),
            format!("{:.0}", s.1),
            format!("{:.0}", s.2),
            format!("{:.0}", s.3),
            format!("{:.0}", s.4),
        ]);
        energy_savings.push(s);
    }
    t.print();
    println!("paper: 315.1–493.5x ART, 92.7–148.9x SMART, 71.1–126.2x CuART, 48.1–97.6x DCART-C\n");

    let report = OverallReport { matrix, speedups, energy_savings };
    write_report(out_dir, "overall", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline shape: who wins, by roughly what factor. Bands are
    /// widened vs the paper's because smoke scale sits at the small end of
    /// Fig. 12(a)'s growth curve (ratios grow with op count).
    #[test]
    fn overall_ordering_and_rough_factors() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-overall-test");
        let r = run(&scale, &tmp);
        for (w, vs_art, vs_smart, vs_cuart, vs_dcart_c) in &r.speedups {
            assert!(*vs_art > 10.0, "{w}: vs ART {vs_art}");
            assert!(*vs_smart > 4.0, "{w}: vs SMART {vs_smart}");
            assert!(*vs_cuart > 2.0, "{w}: vs CuART {vs_cuart}");
            assert!(*vs_dcart_c > 2.0, "{w}: vs DCART-C {vs_dcart_c}");
            // Ordering: ART slowest of the CPU baselines.
            assert!(vs_art > vs_smart, "{w}");
            // DCART-C is competitive with the baselines (paper: slightly
            // better), so DCART's edge over it is the smallest.
            assert!(vs_dcart_c < vs_smart, "{w}: {vs_dcart_c} vs {vs_smart}");
        }
        for (w, e_art, e_smart, e_cuart, e_dcart_c) in &r.energy_savings {
            assert!(*e_art > 30.0, "{w}: energy vs ART {e_art}");
            assert!(*e_smart > 10.0, "{w}: energy vs SMART {e_smart}");
            assert!(*e_cuart > 5.0, "{w}: energy vs CuART {e_cuart}");
            assert!(*e_dcart_c > 5.0, "{w}: energy vs DCART-C {e_dcart_c}");
            // Energy savings exceed speedups (the FPGA draws less power).
            let speed = r.speedups.iter().find(|(sw, ..)| sw == w).unwrap();
            assert!(e_art > &speed.1, "{w}");
        }
    }
}
