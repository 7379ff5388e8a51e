//! CuART: the GPU baseline (Koppehel et al., ICPP'21), modelled as a
//! SIMT batch lookup/update engine on an A100.
//!
//! CuART ships operation batches to the GPU, where warps of 32 lanes
//! traverse the radix tree in lock step. The model reproduces the three
//! effects that decide where CuART lands in the paper's comparison:
//!
//! * **warp divergence** — a warp's traversal takes as many memory steps as
//!   its *deepest* lane; shallow lanes idle (variable ART depths hurt);
//! * **cooperative matching** — all key slots of a node are compared by the
//!   warp in parallel, so the partial-key-match count is one per node
//!   visit, well below a CPU's byte-serial matching (Fig. 8 shows CuART
//!   between the CPU baselines and DCART);
//! * **batch overheads** — each batch pays a kernel launch and PCIe
//!   transfer, so small batches are latency-poor (Fig. 10).
//!
//! Updates use global-memory atomics; colliding lanes serialize, which the
//! same window model as the CPU engines captures.

use dcart_engine::LatencyRecorder;
use dcart_mem::{Access, EnergyModel, MemoryConfig, SetAssocCache};
use dcart_workloads::{KeySet, Op};

use crate::engine::{IndexEngine, RunConfig};
use crate::exec::execute_with_traces;
use crate::report::{Counters, RunReport, TimeBreakdown};
use crate::windows::{ContentionWindow, RedundancyWindow};

/// Parameters of the GPU platform model.
#[derive(Clone, Copy, Debug)]
pub struct GpuConfig {
    /// Lanes per warp.
    pub warp_size: usize,
    /// Warps the device can keep in flight (SMs × resident warps).
    pub concurrent_warps: usize,
    /// Device L2 capacity in bytes (replay cache for tree nodes).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// One warp memory step that hits L2, ns.
    pub l2_hit_ns: f64,
    /// One warp memory step that misses to HBM, ns.
    pub mem: MemoryConfig,
    /// Global atomic cost per lock point, ns.
    pub atomic_ns: f64,
    /// Serialization cost per contended atomic, ns.
    pub contention_ns: f64,
    /// Serialized cost per contended atomic on the critical path (GPU
    /// atomics to one address serialize at the L2 slice), ns.
    pub contention_serial_ns: f64,
    /// Kernel launch overhead per batch, ns.
    pub launch_ns: f64,
    /// Host↔device interconnect bandwidth, GB/s.
    pub pcie_gbps: f64,
    /// Bytes shipped per operation (key + op descriptor + result).
    pub bytes_per_op: u64,
}

impl GpuConfig {
    /// An NVIDIA A100: 108 SMs, 40 MB L2, HBM2e, PCIe 4.0 ×16.
    pub fn a100() -> Self {
        GpuConfig {
            warp_size: 32,
            concurrent_warps: 108 * 32,
            l2_bytes: 40 * 1024 * 1024,
            l2_ways: 16,
            l2_hit_ns: 35.0,
            mem: MemoryConfig::hbm_a100(),
            atomic_ns: 120.0,
            contention_ns: 250.0,
            contention_serial_ns: 560.0,
            launch_ns: 10_000.0,
            pcie_gbps: 25.0,
            bytes_per_op: 24,
        }
    }

    /// Scales the L2 like [`CpuConfig::scaled_for_keys`](crate::CpuConfig::scaled_for_keys)
    /// so sub-paper-scale runs keep the same cached-fraction regime.
    pub fn scaled_for_keys(mut self, keys: usize) -> Self {
        let scale = (keys as f64 / 50_000_000.0).min(1.0);
        let unit = self.l2_ways * 64;
        self.l2_bytes = ((self.l2_bytes as f64 * scale) as usize / unit).max(16) * unit;
        self
    }
}

/// The CuART GPU engine model.
///
/// # Examples
///
/// ```
/// use dcart_baselines::{CuArt, GpuConfig, IndexEngine, RunConfig};
/// use dcart_workloads::{generate_ops, OpStreamConfig, Workload};
///
/// let keys = Workload::DenseInt.generate(2_000, 1);
/// let ops = generate_ops(&keys, &OpStreamConfig { count: 5_000, ..Default::default() });
/// let mut cuart = CuArt::new(GpuConfig::a100().scaled_for_keys(2_000));
/// let report = cuart.run(&keys, &ops, &RunConfig { concurrency: 1_024 });
/// // Cooperative warp matching: one parallel compare per node visit.
/// assert_eq!(report.counters.partial_key_matches, report.counters.nodes_traversed);
/// ```
#[derive(Debug)]
pub struct CuArt {
    config: GpuConfig,
}

impl CuArt {
    /// Creates the engine over a GPU configuration.
    pub fn new(config: GpuConfig) -> Self {
        CuArt { config }
    }
}

impl IndexEngine for CuArt {
    fn name(&self) -> &'static str {
        "CuART"
    }

    fn run(&mut self, keys: &KeySet, ops: &[Op], run: &RunConfig) -> RunReport {
        let cfg = self.config;
        let mut l2 = SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways);
        let mut redundancy = RedundancyWindow::new(run.concurrency);
        let mut contention = ContentionWindow::new(run.concurrency);
        let mut counters = Counters::default();

        // Per-warp accumulation: lane depths and per-step hit/miss.
        let mut warp_lane_depths: Vec<usize> = Vec::with_capacity(cfg.warp_size);
        let mut warp_step_ns: f64 = 0.0;
        let mut total_warp_ns: f64 = 0.0;
        let mut warps: u64 = 0;
        let mut latencies = LatencyRecorder::new();

        let flush_warp =
            |depths: &mut Vec<usize>, step_ns: &mut f64, total: &mut f64, warps: &mut u64| {
                if depths.is_empty() {
                    return;
                }
                // Divergence: the warp runs as long as its deepest lane;
                // cost is the accumulated per-step memory time (each step
                // serviced once for the warp — coalesced).
                *total += *step_ns;
                *warps += 1;
                depths.clear();
                *step_ns = 0.0;
            };

        execute_with_traces(keys, ops, |op| {
            counters.ops += 1;
            if op.kind.is_write() {
                counters.writes += 1;
            } else {
                counters.reads += 1;
            }
            let visits = &op.trace.visits;
            let lane_depth = visits.len();
            // Warp step costs: the deepest lane determines steps; model
            // each of this lane's node fetches through L2.
            let prev_max = warp_lane_depths.iter().copied().max().unwrap_or(0);
            for (level, v) in visits.iter().enumerate() {
                counters.nodes_traversed += 1;
                counters.useful_bytes += u64::from(v.useful_bytes);
                counters.fetched_bytes += u64::from(v.lines) * 64;
                // Cooperative matching: one parallel compare per node.
                counters.partial_key_matches += 1;
                let base = u64::from(v.node.index()) * 256;
                let missed =
                    (0..u64::from(v.lines)).any(|i| l2.access(base + i * 64) == Access::Miss);
                if missed {
                    counters.offchip_accesses += 1;
                    counters.offchip_bytes += u64::from(v.lines) * 64;
                    counters.cache_misses += 1;
                } else {
                    counters.cache_hits += 1;
                }
                // Only levels beyond the current warp-max extend the warp's
                // critical path.
                if level >= prev_max {
                    warp_step_ns += if missed { cfg.mem.latency_ns } else { cfg.l2_hit_ns };
                }
            }
            redundancy.record_op(visits.iter().map(|v| v.node));
            if !op.trace.locks.is_empty() {
                counters.lock_acquisitions += op.trace.locks.len() as u64;
                contention.record_unit(op.trace.locks.iter().copied());
            }
            warp_lane_depths.push(lane_depth);
            if warp_lane_depths.len() == cfg.warp_size {
                flush_warp(
                    &mut warp_lane_depths,
                    &mut warp_step_ns,
                    &mut total_warp_ns,
                    &mut warps,
                );
            }
        });
        flush_warp(&mut warp_lane_depths, &mut warp_step_ns, &mut total_warp_ns, &mut warps);

        counters.redundant_node_visits = redundancy.redundant_visits;
        let (totals, history) = contention.finish();
        counters.lock_contentions = totals.contentions;

        // Traversal time: warp critical paths overlap across resident
        // warps, floored by HBM bandwidth.
        let overlap = (cfg.concurrent_warps as f64).min(cfg.mem.parallelism * 16.0);
        let traversal_ns =
            (total_warp_ns / overlap).max(counters.offchip_bytes as f64 / cfg.mem.peak_bw_gbps);

        // Sync: atomics overlap like ordinary warps; contended ones
        // serialize at the owning L2 slice and do not.
        let sync_ns = (counters.lock_acquisitions as f64 * cfg.atomic_ns
            + counters.lock_contentions as f64 * cfg.contention_ns)
            / overlap
            + counters.lock_contentions as f64 * cfg.contention_serial_ns
            + totals.critical_chain as f64 * cfg.atomic_ns;

        // Batch overheads: launch + PCIe per batch of `concurrency` ops.
        let batches = counters.ops.div_ceil(run.concurrency as u64);
        let pcie_ns = (counters.ops * cfg.bytes_per_op) as f64 / cfg.pcie_gbps;
        let other_ns = batches as f64 * cfg.launch_ns + pcie_ns;

        let total_ns = traversal_ns + sync_ns + other_ns;
        let time_s = total_ns * 1e-9;

        // Latency: an op completes with its batch — batch service time plus
        // queueing behind the hottest lock chain.
        let batch_ns = total_ns / batches as f64;
        latencies.record(batch_ns / 1e3);
        let mean_us = batch_ns / 1e3;
        let mut queue = LatencyRecorder::new();
        for &q in &history {
            queue.record(q as f64 * cfg.atomic_ns / 1e3);
        }
        let p99_us = mean_us + queue.percentile(0.99);

        let energy = EnergyModel::gpu_a100();
        let energy_j = energy.energy_joules(
            time_s,
            counters.offchip_bytes,
            counters.cache_hits + counters.lock_acquisitions,
        );

        RunReport {
            engine: "CuART".to_string(),
            workload: keys.name.clone(),
            counters,
            time_s,
            breakdown: TimeBreakdown {
                traversal_s: traversal_ns * 1e-9,
                sync_s: sync_ns * 1e-9,
                combine_s: 0.0,
                other_s: other_ns * 1e-9,
            },
            energy_j,
            latency_mean_us: mean_us,
            latency_p99_us: p99_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_engines::CpuBaseline;
    use crate::CpuConfig;
    use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

    fn run_cuart(n_keys: usize, n_ops: usize, concurrency: usize) -> RunReport {
        let keys = Workload::Ipgeo.generate(n_keys, 1);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: n_ops, mix: Mix::C, ..Default::default() },
        );
        CuArt::new(GpuConfig::a100().scaled_for_keys(n_keys)).run(
            &keys,
            &ops,
            &RunConfig { concurrency },
        )
    }

    #[test]
    fn cuart_beats_smart_on_throughput() {
        let keys = Workload::Ipgeo.generate(20_000, 1);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 40_000, mix: Mix::C, ..Default::default() },
        );
        let run = RunConfig { concurrency: 4096 };
        let cuart = CuArt::new(GpuConfig::a100().scaled_for_keys(20_000)).run(&keys, &ops, &run);
        let smart = CpuBaseline::smart(CpuConfig::xeon_8468().scaled_for_keys(20_000))
            .run(&keys, &ops, &run);
        assert!(cuart.time_s < smart.time_s, "CuART {} vs SMART {}", cuart.time_s, smart.time_s);
    }

    #[test]
    fn cooperative_matching_is_one_per_visit() {
        let r = run_cuart(5_000, 10_000, 2048);
        assert_eq!(r.counters.partial_key_matches, r.counters.nodes_traversed);
    }

    #[test]
    fn small_batches_pay_proportionally_more_launch_overhead() {
        // Small batches multiply kernel launches; large batches amortize
        // them (but collide more). The overhead *share* must grow as the
        // batch shrinks.
        let small = run_cuart(5_000, 20_000, 256);
        let large = run_cuart(5_000, 20_000, 16_384);
        let small_share = small.breakdown.other_s / small.breakdown.total_s();
        let large_share = large.breakdown.other_s / large.breakdown.total_s();
        assert!(
            small_share > 2.0 * large_share,
            "launch share small={small_share} large={large_share}"
        );
    }

    #[test]
    fn counters_populated() {
        let r = run_cuart(2_000, 5_000, 1024);
        assert_eq!(r.counters.ops, 5_000);
        assert!(r.counters.nodes_traversed > 0);
        assert!(r.energy_j > 0.0);
        assert!(r.latency_p99_us >= r.latency_mean_us);
    }
}
