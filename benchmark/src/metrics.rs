//! The benchmark's vocabulary: workloads, metric names, units, directions
//! and bounds. `BENCHMARK.json` at the root of the repo is generated from
//! these tables (`dcart-benchmark manifest`) and a test keeps the two equal.

use std::fmt::Write as _;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;
/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// `(name, why it was chosen)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch-skew-rw",
        "Offline executor, 1M IPGEO keys, Zipf 0.99, 50% writes: Combine, shortcuts, lock \
         coalescing and shared traversal do the work; no scans, wire or WAL.",
    ),
    (
        "batch-uniform-scan",
        "Offline executor, 1M random keys, uniform, 25% writes, 1% of reads are range scans: no \
         locality, so shortcuts pay nothing and the deferred scan merge dominates.",
    ),
    (
        "serve-volatile",
        "TCP server without durability, 2 closed-loop clients x 128 in flight: wire codec, \
         admission, inbox and connection threads are the cost; the executor's share is small.",
    ),
    (
        "serve-durable",
        "Same traffic with WAL, fsynced commits and a checkpoint every 64 batches: the \
         difference to serve-volatile is the durability layer.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better)`. A workload's traced run reports 0 for a layer
/// it never enters. Units of simulated quantities start with `sim_`.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("workloads.keygen_s", "s", "lower"),
    ("workloads.opgen_s", "s", "lower"),
    ("art.load_s", "s", "lower"),
    ("art.levelwise_ns_per_key", "ns", "lower"),
    ("art.get_ns_per_key", "ns", "lower"),
    ("art.scan_ns_per_item", "ns", "lower"),
    ("art.nodes_per_op", "count", "lower"),
    ("art.wave_sharing_ratio", "ratio", "lower"),
    ("pcu.combine_ns_per_op", "ns", "lower"),
    ("pcu.max_bucket_share", "ratio", "lower"),
    ("ctt.load_s", "s", "lower"),
    ("ctt.execute_ns_per_op", "ns", "lower"),
    ("ctt.consumer_ns_per_op", "ns", "lower"),
    ("ctt.batch_p50_us", "us", "lower"),
    ("ctt.batch_p99_us", "us", "lower"),
    ("ctt.scan_us_per_scan", "us", "lower"),
    ("ctt.scan_time_share", "ratio", "lower"),
    ("ctt.lock_coalescing_ratio", "ratio", "lower"),
    ("ctt.vs_art_ratio", "ratio", "higher"),
    ("baselines.art_trace_ops_per_s", "1/s", "higher"),
    ("shortcut.hit_ratio", "ratio", "higher"),
    ("shortcut.hash_collisions_per_kop", "count", "lower"),
    ("pool.t2_speedup", "ratio", "higher"),
    ("pool.t2_steal_speedup", "ratio", "higher"),
    ("accel.sim_mops", "sim_Mops/s", "higher"),
    ("accel.sim_speedup_vs_cpu_art", "sim_ratio", "higher"),
    ("accel.host_us_per_sim_op", "us", "lower"),
    ("wire.encode_req_ns", "ns", "lower"),
    ("wire.decode_req_ns", "ns", "lower"),
    ("wire.encode_resp_ns", "ns", "lower"),
    ("wire.decode_resp_ns", "ns", "lower"),
    ("wire.frame_io_ns", "ns", "lower"),
    ("admission.admit_release_ns", "ns", "lower"),
    ("admission.rejected_share", "ratio", "lower"),
    ("admission.expired_in_queue", "count", "lower"),
    ("core_loop.submit_ns", "ns", "lower"),
    ("core_loop.flush_us_per_batch", "us", "lower"),
    ("core_loop.mean_batch_fill", "count", "higher"),
    ("net.idle_rtt_us", "us", "lower"),
    ("net.request_p50_us", "us", "lower"),
    ("net.request_p99_us", "us", "lower"),
    ("net.loopback_share", "ratio", "lower"),
    ("wal.append_us_per_batch", "us", "lower"),
    ("wal.commit_sync_us", "us", "lower"),
    ("wal.commit_nosync_us", "us", "lower"),
    ("wal.bytes_per_op", "count", "lower"),
    ("wal.time_share", "ratio", "lower"),
    ("durable.encode_ops_ns_per_op", "ns", "lower"),
    ("durable.tree_merge_ms", "ms", "lower"),
    ("durable.checkpoint_ms", "ms", "lower"),
    ("durable.checkpoint_mb", "MB", "lower"),
    ("durable.checkpoints", "count", "lower"),
    ("durable.checkpoint_time_share", "ratio", "lower"),
    ("durable.recover_ms", "ms", "lower"),
    ("persist.write_amplification", "ratio", "lower"),
    ("serve.traced_ops_per_s", "1/s", "higher"),
    ("serve.cpu_us_per_op", "us", "lower"),
    ("serve.account_gap_share", "ratio", "lower"),
    ("serve.tree_keys", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
];

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(key, JSON value)` pairs printed on their own line before the
    /// result, for what the result line has no place for (answer digests).
    pub notes: Vec<(&'static str, String)>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The run's last line of output: `correct`, `attempted`, `failed`, and
/// every metric of `names` with its unit, in table order. A metric the run
/// did not report is 0 (a layer the workload never enters).
pub fn result_json(outcome: &Outcome, names: &[(&'static str, &'static str)]) -> String {
    for (got, _) in &outcome.metrics {
        assert!(names.iter().any(|(n, _)| n == got), "metric {got} is not in the table");
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            assert!(value.is_finite(), "metric {name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)).collect()
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]\n}}", rows.join(",\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(well_formed(n, 64, "_.-") && n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{name}");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(well_formed(u, 16, "_/%.-"), "{u}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS) && PER_LAYER.len() <= 128);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with `dcart-benchmark manifest`");
    }

    #[test]
    fn result_line_has_every_name_and_zero_for_a_layer_not_entered() {
        let outcome =
            Outcome { attempted: 10, failed: 1, notes: Vec::new(), metrics: vec![("b.y", 2.5)] };
        assert_eq!(
            result_json(&outcome, &[("a.x", "ns"), ("b.y", "1/s")]),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"a.x\": \
             {\"value\": 0, \"unit\": \"ns\"}, \"b.y\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
    }
}
