//! Fig. 12 — sensitivity studies (paper §IV-C).
//!
//! * (a) IPGEO with a growing number of concurrent operations: DCART's
//!   advantage grows, because more concurrency means more coalescing;
//! * (b) IPGEO across mixes A (100 % read) … E (100 % write): DCART's
//!   advantage grows with the write ratio (more lock contention avoided).

use std::path::Path;

use dcart_workloads::{Mix, Workload};
use serde::Serialize;

use crate::matrix::run_engine;
use crate::{write_report, Scale, Table};

/// One sensitivity measurement.
#[derive(Clone, Debug, Serialize)]
pub struct SensitivityPoint {
    /// Swept parameter value (concurrency, or mix label as u32 of char).
    pub x: String,
    /// DCART speedup over SMART at this point.
    pub speedup_vs_smart: f64,
    /// DCART speedup over ART at this point.
    pub speedup_vs_art: f64,
}

/// Full Fig. 12 report.
#[derive(Clone, Debug, Serialize)]
pub struct Fig12Report {
    /// (a): sweep of concurrent operations.
    pub vs_concurrency: Vec<SensitivityPoint>,
    /// (b): sweep of write ratio.
    pub vs_mix: Vec<SensitivityPoint>,
}

/// Runs both sweeps and writes `fig12.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> Fig12Report {
    println!("== Fig. 12(a): speedup vs number of concurrent operations (IPGEO) ==");
    let mut vs_concurrency = Vec::new();
    let mut t = Table::new(&["concurrent ops", "DCART x ART", "DCART x SMART"]);
    for conc in [2_048usize, 8_192, 32_768, 131_072] {
        let conc = conc.min(scale.ops);
        let mut s = *scale;
        s.concurrency = conc;
        let dcart = run_engine("DCART", Workload::Ipgeo, &s, Mix::C);
        let art = run_engine("ART", Workload::Ipgeo, &s, Mix::C);
        let smart = run_engine("SMART", Workload::Ipgeo, &s, Mix::C);
        let p = SensitivityPoint {
            x: conc.to_string(),
            speedup_vs_smart: dcart.speedup_vs(&smart),
            speedup_vs_art: dcart.speedup_vs(&art),
        };
        t.row(&[
            p.x.clone(),
            format!("{:.1}", p.speedup_vs_art),
            format!("{:.1}", p.speedup_vs_smart),
        ]);
        vs_concurrency.push(p);
    }
    t.print();
    println!("paper: DCART achieves better performance as the number of operations increases\n");

    println!("== Fig. 12(b): speedup vs write ratio (IPGEO, mixes A–E) ==");
    let mut vs_mix = Vec::new();
    let mut t = Table::new(&["mix", "read %", "DCART x ART", "DCART x SMART"]);
    for (label, mix) in Mix::named() {
        let dcart = run_engine("DCART", Workload::Ipgeo, scale, mix);
        let art = run_engine("ART", Workload::Ipgeo, scale, mix);
        let smart = run_engine("SMART", Workload::Ipgeo, scale, mix);
        let p = SensitivityPoint {
            x: label.to_string(),
            speedup_vs_smart: dcart.speedup_vs(&smart),
            speedup_vs_art: dcart.speedup_vs(&art),
        };
        t.row(&[
            label.to_string(),
            format!("{:.0}", mix.read_fraction * 100.0),
            format!("{:.1}", p.speedup_vs_art),
            format!("{:.1}", p.speedup_vs_smart),
        ]);
        vs_mix.push(p);
    }
    t.print();
    println!(
        "paper: better improvement as the write ratio increases (more lock contention avoided)\n"
    );

    let report = Fig12Report { vs_concurrency, vs_mix };
    write_report(out_dir, "fig12", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_grows_with_concurrency_and_writes() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-fig12-test");
        let r = run(&scale, &tmp);

        // (a) monotone-ish growth: last point clearly above the first.
        let first = r.vs_concurrency.first().unwrap().speedup_vs_art;
        let last = r.vs_concurrency.last().unwrap().speedup_vs_art;
        assert!(last > first, "vs concurrency: {first} -> {last}");

        // (b) write-heavy mixes widen the gap over read-only.
        let a = r.vs_mix.iter().find(|p| p.x == "A").unwrap().speedup_vs_art;
        let e = r.vs_mix.iter().find(|p| p.x == "E").unwrap().speedup_vs_art;
        assert!(e > a, "mix A {a} vs mix E {e}");
    }
}
