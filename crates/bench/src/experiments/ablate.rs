//! Ablations of DCART's design choices.
//!
//! The paper motivates four mechanisms without ablating them individually;
//! these experiments isolate each one:
//!
//! * **shortcuts** (§III-C, Observation 2): on vs off;
//! * **Tree-buffer policy** (§III-E): value-aware vs LRU vs FIFO;
//! * **batch overlap** (§III-D, Fig. 6): on vs off;
//! * **SOU count** (Table I's choice of 16): 1 → 32;
//! * **combining prefix width** (§III-B's default 8 bits): 4 / 8 / 16.

use std::path::Path;

use dcart::{DcartAccel, DcartConfig};
use dcart_baselines::{IndexEngine, RunConfig, RunReport};
use dcart_mem::BufferPolicy;
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::{write_report, Scale, Table};

/// One ablation measurement.
#[derive(Clone, Debug, Serialize)]
pub struct AblationPoint {
    /// Which knob, e.g. "shortcuts=off".
    pub variant: String,
    /// Runtime in seconds.
    pub time_s: f64,
    /// Throughput in Mops/s.
    pub throughput_mops: f64,
    /// Nodes fetched.
    pub nodes_traversed: u64,
    /// Tree-buffer hit ratio.
    pub tree_buffer_hit_ratio: f64,
}

/// Full ablation report.
#[derive(Clone, Debug, Serialize)]
pub struct AblationReport {
    /// All measurements, grouped by `variant` prefix.
    pub points: Vec<AblationPoint>,
}

/// Builds the full variant list: (label, configuration) per ablation.
fn variants(base: DcartConfig) -> Vec<(String, DcartConfig)> {
    let mut out = vec![("baseline (Table I)".to_string(), base)];

    let mut c = base;
    c.shortcuts_enabled = false;
    out.push(("shortcuts=off".to_string(), c));

    let mut c = base;
    c.tree_buffer_policy = BufferPolicy::Lru;
    out.push(("tree-policy=lru".to_string(), c));
    let mut c = base;
    c.tree_buffer_policy = BufferPolicy::Fifo;
    out.push(("tree-policy=fifo".to_string(), c));

    let mut c = base;
    c.overlap_enabled = false;
    out.push(("overlap=off".to_string(), c));

    for sous in [1usize, 4, 8, 16, 32] {
        let mut c = base;
        c.sous = sous;
        out.push((format!("sous={sous}"), c));
    }

    for bits in [4u32, 8, 16] {
        let mut c = base;
        c.prefix_bits = bits;
        out.push((format!("prefix-bits={bits}"), c));
    }

    // Extension: the single PCU is DCART's throughput ceiling (1 op/cycle
    // at 230 MHz = 230 Mops/s); striping the scan over multiple PCUs
    // shows how far the rest of the design could scale.
    for pcus in [2usize, 4] {
        let mut c = base;
        c.pcus = pcus;
        out.push((format!("pcus={pcus}"), c));
    }
    out
}

/// Runs all ablations on IPGEO and writes `ablations.json`.
pub fn run(scale: &Scale, out_dir: &Path) -> AblationReport {
    println!("== Ablations: DCART design choices (IPGEO, mix C) ==");
    let base = DcartConfig::default().scaled_for_keys(scale.keys);
    let mut t = Table::new(&["variant", "time s", "Mops/s", "nodes fetched", "tree-buf hit"]);

    // The key set and op stream are shared by every variant; variants then
    // fan out over the worker pool and are collected in declaration order.
    let keys = Workload::Ipgeo.generate(scale.keys, scale.seed);
    let ops = generate_ops(
        &keys,
        &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
    );
    let points = crate::parallel::par_map(scale.jobs, variants(base), |(variant, cfg)| {
        let mut engine = DcartAccel::new(cfg.with_auto_prefix_skip(&keys)).with_exec(scale.exec);
        let r: RunReport = engine.run(&keys, &ops, &RunConfig { concurrency: scale.concurrency });
        AblationPoint {
            variant,
            time_s: r.time_s,
            throughput_mops: r.throughput_mops(),
            nodes_traversed: r.counters.nodes_traversed,
            tree_buffer_hit_ratio: engine.last_details().tree_buffer_hit_ratio,
        }
    });

    for p in &points {
        t.row(&[
            p.variant.clone(),
            format!("{:.5}", p.time_s),
            format!("{:.1}", p.throughput_mops),
            p.nodes_traversed.to_string(),
            format!("{:.3}", p.tree_buffer_hit_ratio),
        ]);
    }
    t.print();
    println!();
    let report = AblationReport { points };
    write_report(out_dir, "ablations", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(r: &'a AblationReport, v: &str) -> &'a AblationPoint {
        r.points.iter().find(|p| p.variant == v).unwrap()
    }

    #[test]
    fn ablations_isolate_each_mechanism() {
        let scale = Scale::smoke();
        let tmp = std::env::temp_dir().join("dcart-ablate-test");
        let r = run(&scale, &tmp);
        let base = point(&r, "baseline (Table I)");

        // Shortcuts eliminate traversal work beyond what per-batch
        // combining already coalesces (the bulk of the savings — a
        // reproduction finding recorded in EXPERIMENTS.md).
        let no_shortcut = point(&r, "shortcuts=off");
        assert!(
            no_shortcut.nodes_traversed > base.nodes_traversed,
            "off {} vs on {}",
            no_shortcut.nodes_traversed,
            base.nodes_traversed
        );

        // Disabling overlap costs time (combining becomes visible).
        let no_overlap = point(&r, "overlap=off");
        assert!(no_overlap.time_s > base.time_s);

        // A single SOU serializes the operating phase.
        let one_sou = point(&r, "sous=1");
        assert!(one_sou.time_s > base.time_s);

        // All variants are functionally identical (same op count implies
        // the same final result; traversal counts differ only via the
        // shortcut knob).
        let lru = point(&r, "tree-policy=lru");
        assert_eq!(lru.nodes_traversed, base.nodes_traversed);

        // Extra PCUs lift the combining ceiling.
        let pcus4 = point(&r, "pcus=4");
        assert!(
            pcus4.throughput_mops > base.throughput_mops,
            "{} vs {}",
            pcus4.throughput_mops,
            base.throughput_mops
        );
    }
}
