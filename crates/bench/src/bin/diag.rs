//! `diag` — one comparison line per engine, for quick model debugging.
//!
//! ```text
//! diag [keys] [ops] [concurrency]     # defaults: 20000 60000 8192
//! ```

use dcart::{DcartAccel, DcartConfig, DcartSoftware};
use dcart_baselines::{CpuBaseline, CpuConfig, CuArt, GpuConfig, IndexEngine, RunConfig};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

/// Positional argument `i` as a count, `default` when it is absent; one
/// that does not parse ends the process with a one-line message.
fn count(args: &[String], i: usize, what: &str, default: usize) -> usize {
    let Some(arg) = args.get(i) else { return default };
    arg.parse().unwrap_or_else(|_| {
        eprintln!("bad {what} {arg}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_keys = count(&args, 1, "key count", 20_000);
    let n_ops = count(&args, 2, "op count", 60_000);
    let conc = count(&args, 3, "concurrency", 8192);
    let keys = Workload::Ipgeo.generate(n_keys, 1);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: n_ops, mix: Mix::C, ..Default::default() });
    let run = RunConfig { concurrency: conc };
    let cpu = CpuConfig::xeon_8468().scaled_for_keys(n_keys);
    let dcfg = DcartConfig::default().scaled_for_keys(n_keys);

    let mut engines: Vec<Box<dyn IndexEngine>> = vec![
        Box::new(CpuBaseline::art(cpu)),
        Box::new(CpuBaseline::heart(cpu)),
        Box::new(CpuBaseline::smart(cpu)),
        Box::new(CuArt::new(GpuConfig::a100().scaled_for_keys(n_keys))),
        Box::new(DcartSoftware::new(dcfg, cpu)),
    ];
    for e in &mut engines {
        let r = e.run(&keys, &ops, &run);
        println!("{:8} time={:.6}s tput={:.2}Mops trav={:.2e} sync={:.2e} comb={:.2e} other={:.2e} matches={} visits={} cont={} misses={}",
            r.engine, r.time_s, r.throughput_mops(),
            r.breakdown.traversal_s, r.breakdown.sync_s, r.breakdown.combine_s, r.breakdown.other_s,
            r.counters.partial_key_matches, r.counters.nodes_traversed, r.counters.lock_contentions, r.counters.cache_misses);
    }
    let mut d = DcartAccel::new(dcfg);
    let r = d.run(&keys, &ops, &run);
    println!("{:8} time={:.6}s tput={:.2}Mops cycles={} imbal={:.2} treehit={:.3} schit={:.3} matches={} visits={} cont={}",
        r.engine, r.time_s, r.throughput_mops(), d.last_details().total_cycles,
        d.last_details().bucket_imbalance, d.last_details().tree_buffer_hit_ratio, d.last_details().shortcut_buffer_hit_ratio,
        r.counters.partial_key_matches, r.counters.nodes_traversed, r.counters.lock_contentions);
    for b in d.last_details().batches.iter().take(3) {
        println!("  batch pcu={} sou={} ops={}", b.pcu_cycles, b.sou_cycles, b.ops);
    }
}
