//! Calibration test: at the reproduction's reference operating point
//! (100 k keys, 1 M operations, 64 Ki in flight — 1/50 of paper scale with
//! platform caches shrunk in proportion), the headline ratios of the
//! paper's Figs. 7, 9, and 11 must land inside (slightly widened) paper
//! bands, and Fig. 8's inside the right decade.
//!
//! This is the repository's anchor: if a model change moves the headline
//! numbers out of the paper's ranges, this test fails.

use dcart_bench::{run_matrix, Scale};
use dcart_workloads::Workload;

fn band(x: f64, lo: f64, hi: f64, what: &str) {
    // 20 % slack on either side of the paper's reported range.
    assert!(
        x >= lo * 0.8 && x <= hi * 1.2,
        "{what}: {x:.1} outside widened paper band [{lo}, {hi}]"
    );
}

#[test]
fn headline_ratios_match_the_paper() {
    let scale = Scale { keys: 100_000, ops: 1_000_000, concurrency: 65_536, ..Scale::smoke() };
    let matrix =
        run_matrix(&["ART", "SMART", "CuART", "DCART-C", "DCART"], &[Workload::Ipgeo], &scale);
    let get = |engine: &str| {
        &matrix.iter().find(|e| e.engine == engine).expect("engine in matrix").report
    };
    let (art, smart, cuart, dcart_c, dcart) =
        (get("ART"), get("SMART"), get("CuART"), get("DCART-C"), get("DCART"));

    // Fig. 9 — speedups.
    band(dcart.speedup_vs(art), 123.8, 151.7, "speedup vs ART");
    band(dcart.speedup_vs(smart), 35.9, 44.2, "speedup vs SMART");
    band(dcart.speedup_vs(cuart), 21.1, 31.2, "speedup vs CuART");
    // DCART-C "only slightly outperforms" the baselines.
    let dcart_c_edge = smart.time_s / dcart_c.time_s;
    assert!(
        (1.0..4.0).contains(&dcart_c_edge),
        "DCART-C edge over SMART should be modest: {dcart_c_edge:.2}"
    );
    assert!(dcart_c.time_s < cuart.time_s, "DCART-C also edges CuART");

    // Fig. 11 — energy savings.
    band(dcart.energy_saving_vs(art), 315.1, 493.5, "energy vs ART");
    band(dcart.energy_saving_vs(smart), 92.7, 148.9, "energy vs SMART");
    band(dcart.energy_saving_vs(cuart), 71.1, 126.2, "energy vs CuART");
    band(dcart.energy_saving_vs(dcart_c), 48.1, 97.6, "energy vs DCART-C");

    // Fig. 7 — lock contentions: 3.2–19.7 % of the baselines'.
    let contention_frac =
        dcart.counters.lock_contentions as f64 / art.counters.lock_contentions.max(1) as f64;
    assert!((0.01..0.25).contains(&contention_frac), "contention fraction {contention_frac:.3}");

    // Fig. 8 — partial-key matches: the paper reports 3.2–5.7 % of ART;
    // our coalescing model lands within ~3× of that (see EXPERIMENTS.md).
    let match_frac =
        dcart.counters.partial_key_matches as f64 / art.counters.partial_key_matches as f64;
    assert!(match_frac < 0.18, "match fraction vs ART {match_frac:.3}");
    let match_frac_smart =
        dcart.counters.partial_key_matches as f64 / smart.counters.partial_key_matches as f64;
    assert!(match_frac_smart < 0.30, "match fraction vs SMART {match_frac_smart:.3}");
}
