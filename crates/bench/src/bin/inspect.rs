//! `inspect` — structural statistics of the ART a workload builds.
//!
//! ```text
//! inspect [workload] [keys]     # default: all six workloads, 100k keys
//! ```
//!
//! Prints, per workload: node-type histogram (the paper's Fig. 1
//! adaptivity), memory footprint vs a traditional radix tree, depth
//! statistics, and the traversal skew behind Fig. 3.

use dcart_art::{Art, NodeType};
use dcart_bench::Table;
use dcart_workloads::Workload;

fn inspect(workload: Workload, n_keys: usize, t: &mut Table) {
    let keys = workload.generate(n_keys, 42);
    let mut art: Art<u64> = Art::new();
    for (i, k) in keys.keys.iter().enumerate() {
        art.insert(k.clone(), i as u64).expect("workload keys are prefix-free");
    }
    art.assert_invariants();
    let h = art.type_histogram();
    let adaptive_mb = art.memory_footprint() as f64 / 1e6;
    // A traditional radix tree spends an N256 payload on every inner node.
    let traditional_mb = (h.inner_total() as u64 * u64::from(NodeType::N256.payload_bytes())
        + h.leaves as u64 * 32) as f64
        / 1e6;
    t.row(&[
        workload.name().to_string(),
        art.len().to_string(),
        h.n4.to_string(),
        h.n16.to_string(),
        h.n48.to_string(),
        h.n256.to_string(),
        format!("{:.2}", art.mean_depth()),
        format!("{:.1}", adaptive_mb),
        format!("{:.1}", traditional_mb),
        format!("{:.1}x", traditional_mb / adaptive_mb.max(1e-9)),
    ]);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_keys: usize = match args.get(1) {
        None => 100_000,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("bad key count {arg}");
            std::process::exit(1);
        }),
    };
    let workloads: Vec<Workload> = match args.first().map(String::as_str) {
        None | Some("all") => Workload::ALL.to_vec(),
        Some(name) => match Workload::from_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name}; use IPGEO|DICT|EA|DE|RS|RD|all");
                std::process::exit(1);
            }
        },
    };

    println!("ART structure per workload ({n_keys} keys)\n");
    let mut t = Table::new(&[
        "workload",
        "keys",
        "N4",
        "N16",
        "N48",
        "N256",
        "mean depth",
        "ART MB",
        "radix MB",
        "saving",
    ]);
    for w in workloads {
        inspect(w, n_keys, &mut t);
    }
    t.print();
    println!("\n(adaptive node layouts vs a traditional 256-way radix tree — paper Fig. 1)");
}
