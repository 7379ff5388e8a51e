//! DCART-C: the software-only implementation of the CTT model on the CPU
//! (paper §IV-A, "the CPU version ... is called DCART-C").
//!
//! DCART-C enjoys the model's algorithmic savings — coalesced traversals,
//! shortcuts, grouped locks — but pays for them in software:
//!
//! * every operation is scanned, hashed, and appended to a bucket table at
//!   runtime, and shortcuts are maintained on the fly (charged per event);
//! * a bucket must be processed *in order* by one worker, so the hottest
//!   bucket of every batch is a serial chain that no core count can hide;
//! * tree traversal remains branchy and irregular on a general-purpose
//!   pipeline, and each bucket worker chases pointers serially (one miss
//!   at a time), where the 96 independent threads of an operation-centric
//!   baseline overlap their misses.
//!
//! The net effect reproduces Fig. 9: DCART-C only modestly outperforms the
//! best baselines, while the hardware DCART runs away with it.

use dcart_baselines::{
    ContentionWindow, Counters, CpuConfig, IndexEngine, RedundancyWindow, RunConfig, RunReport,
    TimeBreakdown,
};
use dcart_engine::LatencyRecorder;
use dcart_mem::{Access, EnergyModel, SetAssocCache};
use dcart_workloads::{KeySet, Op, OpKind};

use crate::config::DcartConfig;
use crate::ctt::{execute_ctt, BatchEvent, CttConsumer, CttOpEvent, ExecOpts, LockGroup};

// Software overhead costs of the CTT runtime on a CPU, in nanoseconds.

/// Scan + prefix hash + bucket-table append, per operation. The append
/// lands at a random offset of one of 16 MB-scale bucket tables, so it
/// usually costs a DRAM miss on top of the hash — the software combiner
/// suffers the very locality problem the hardware buffers solve (paper
/// §II-C Challenges).
const COMBINE_NS: f64 = 110.0;
/// Shortcut-table probe, per read/update.
const PROBE_NS: f64 = 45.0;
/// Shortcut generation/update, per traversal.
const GENERATE_NS: f64 = 90.0;
/// Batch setup/teardown (allocation, dispatch), per batch.
const BATCH_NS: f64 = 4_000.0;

/// The DCART-C engine.
///
/// # Examples
///
/// ```
/// use dcart::{DcartConfig, DcartSoftware};
/// use dcart_baselines::{CpuConfig, IndexEngine, RunConfig};
/// use dcart_workloads::{generate_ops, OpStreamConfig, Workload};
///
/// let keys = Workload::Ipgeo.generate(2_000, 1);
/// let ops = generate_ops(&keys, &OpStreamConfig { count: 5_000, ..Default::default() });
/// let cpu = CpuConfig::xeon_8468().scaled_for_keys(2_000);
/// let cfg = DcartConfig::default().scaled_for_keys(2_000).with_auto_prefix_skip(&keys);
/// let report = DcartSoftware::new(cfg, cpu).run(&keys, &ops, &RunConfig::default());
/// // The software CTT pays a visible combining cost (paper Fig. 9).
/// assert!(report.breakdown.combine_s > 0.0);
/// ```
#[derive(Debug)]
pub struct DcartSoftware {
    dcart: DcartConfig,
    cpu: CpuConfig,
    exec: ExecOpts,
}

impl DcartSoftware {
    /// Creates DCART-C with the given DCART and CPU configurations.
    pub fn new(dcart: DcartConfig, cpu: CpuConfig) -> Self {
        DcartSoftware { dcart, cpu, exec: ExecOpts::default() }
    }

    /// Overrides how the host executes the functional CTT run (default
    /// [`ExecOpts::default`]); the modelled results never depend on it.
    pub fn with_exec(mut self, exec: ExecOpts) -> Self {
        self.exec = exec;
        self
    }
}

/// Per-component nanosecond totals (for the time breakdown).
#[derive(Clone, Copy, Default, Debug)]
struct NsTotals {
    traversal: f64,
    sync: f64,
    combine: f64,
    other: f64,
}

impl NsTotals {
    fn total(&self) -> f64 {
        self.traversal + self.sync + self.combine + self.other
    }
}

struct SoftwareConsumer {
    cpu: CpuConfig,
    cache: SetAssocCache,
    redundancy: RedundancyWindow,
    contention: ContentionWindow,
    counters: Counters,
    ns: NsTotals,
    /// Work accumulated per bucket within the current batch.
    bucket_ns: Vec<f64>,
    /// Serial chain: sum over batches of the hottest bucket's time.
    serial_chain_ns: f64,
    /// The software PCU: combining scans operations *sequentially* (the
    /// bucket append is order-sensitive), so this chain is single-threaded
    /// no matter the core count — the paper's "expensive runtime cost to
    /// dynamically coalesce the operations" (§II-C Challenges).
    combine_serial_ns: f64,
    batch_durations: LatencyRecorder,
    line_hits: u64,
    line_misses: u64,
}

impl SoftwareConsumer {
    fn charge(&mut self, bucket: usize, ns: f64, component: fn(&mut NsTotals) -> &mut f64) {
        *component(&mut self.ns) += ns;
        self.bucket_ns[bucket] += ns;
    }
}

impl CttConsumer for SoftwareConsumer {
    fn batch_start(&mut self, ev: &BatchEvent<'_>) {
        // Reuse the per-bucket accumulator across batches (the executor
        // only lends us `bucket_sizes` for the callback's duration anyway).
        self.bucket_ns.resize(ev.bucket_sizes.len(), 0.0);
        self.bucket_ns.iter_mut().for_each(|ns| *ns = 0.0);
        self.ns.combine += BATCH_NS;
        self.combine_serial_ns += BATCH_NS;
        // The scan/hash/append of every operation in the batch happens on
        // the combining thread before buckets dispatch.
        let ops: u32 = ev.bucket_sizes.iter().sum();
        let scan_ns = f64::from(ops) * COMBINE_NS;
        self.ns.combine += scan_ns;
        self.combine_serial_ns += scan_ns;
    }

    fn op(&mut self, ev: &CttOpEvent<'_>) {
        self.counters.ops += 1;
        if ev.kind.is_write() {
            self.counters.writes += 1;
        } else {
            self.counters.reads += 1;
        }

        // Traversal: a bucket worker chases pointers serially — every miss
        // costs the full memory latency.
        let mut trav = 0.0;
        for v in ev.visits {
            self.counters.nodes_traversed += 1;
            self.counters.useful_bytes += u64::from(v.useful_bytes);
            self.counters.fetched_bytes += u64::from(v.lines) * 64;
            let base = u64::from(v.node.index()) * 256;
            for i in 0..u64::from(v.lines) {
                match self.cache.access(base + i * 64) {
                    Access::Hit => {
                        self.line_hits += 1;
                        trav += self.cpu.hit_ns;
                    }
                    Access::Miss => {
                        self.line_misses += 1;
                        trav += self.cpu.mem.latency_ns;
                    }
                }
            }
        }
        trav += ev.matches as f64 * self.cpu.match_ns;
        self.redundancy.record_op(ev.visits.iter().map(|v| v.node));
        self.counters.partial_key_matches += ev.matches;
        if ev.shortcut_hit {
            self.counters.shortcut_hits += 1;
        } else {
            self.counters.shortcut_misses += 1;
        }
        self.charge(ev.bucket, trav, |n| &mut n.traversal);

        // Shortcut maintenance runs in the bucket workers.
        let mut combine = 0.0;
        if matches!(ev.kind, OpKind::Read | OpKind::Update) {
            combine += PROBE_NS;
        }
        if ev.generated_shortcut {
            combine += GENERATE_NS;
        }
        self.charge(ev.bucket, combine, |n| &mut n.combine);
        self.charge(ev.bucket, self.cpu.op_overhead_ns, |n| &mut n.other);
    }

    fn lock_group(&mut self, group: &LockGroup) {
        // One CAS per coalesced group, taken by the bucket's worker.
        self.counters.lock_acquisitions += 1;
        self.contention.record_unit([group.node]);
        self.charge(group.bucket, self.cpu.atomic_cached_ns, |n| &mut n.sync);
    }

    fn batch_end(&mut self, _index: usize) {
        // A batch is the concurrency window: cross-bucket collisions within
        // it are real, across batches they are not.
        self.contention.end_window();
        let max = self.bucket_ns.iter().copied().fold(0.0f64, f64::max);
        self.serial_chain_ns += max;
        self.batch_durations.record(max / 1e3);
    }
}

impl IndexEngine for DcartSoftware {
    fn name(&self) -> &'static str {
        "DCART-C"
    }

    fn run(&mut self, keys: &KeySet, ops: &[Op], run: &RunConfig) -> RunReport {
        let mut consumer = SoftwareConsumer {
            cpu: self.cpu,
            cache: SetAssocCache::new(self.cpu.cache_bytes, self.cpu.cache_ways),
            redundancy: RedundancyWindow::new(run.concurrency),
            contention: ContentionWindow::new(usize::MAX >> 1),
            counters: Counters::default(),
            ns: NsTotals::default(),
            bucket_ns: Vec::new(),
            serial_chain_ns: 0.0,
            combine_serial_ns: 0.0,
            batch_durations: LatencyRecorder::new(),
            line_hits: 0,
            line_misses: 0,
        };
        let (_, stats, _) =
            execute_ctt(keys, ops, &self.dcart, run.concurrency, &self.exec, &mut consumer)
                .expect("IndexEngine contract: a positive concurrency over a prefix-free key set");

        let mut counters = consumer.counters;
        counters.redundant_node_visits = consumer.redundancy.redundant_visits;
        let (totals, _history) = consumer.contention.finish();
        counters.lock_contentions = totals.contentions + stats.shortcut_hash_collisions;
        counters.offchip_accesses = consumer.line_misses;
        counters.offchip_bytes = consumer.line_misses * 64;
        counters.cache_hits = consumer.line_hits;
        counters.cache_misses = consumer.line_misses;
        debug_assert_eq!(stats.ops, counters.ops);

        // Batches pipeline across the core count (combining of batch i+1
        // overlaps operating of batch i in software too), but three serial
        // chains bound the run: the sequential combining scan, the hottest
        // bucket of each batch, and the work spread over all cores.
        let threads = self.cpu.threads as f64;
        let work_ns = consumer.ns.total();
        let total_ns =
            (work_ns / threads).max(consumer.serial_chain_ns).max(consumer.combine_serial_ns);
        let time_s = total_ns * 1e-9;

        // Scale the component totals onto the critical-path time.
        let scale = if work_ns > 0.0 { total_ns / work_ns } else { 0.0 };
        let breakdown = TimeBreakdown {
            traversal_s: consumer.ns.traversal * scale * 1e-9,
            sync_s: consumer.ns.sync * scale * 1e-9,
            combine_s: consumer.ns.combine * scale * 1e-9,
            other_s: consumer.ns.other * scale * 1e-9,
        };

        let energy_j = EnergyModel::cpu_xeon().energy_joules(
            time_s,
            counters.offchip_bytes,
            counters.cache_hits + counters.lock_acquisitions,
        );

        let mut durations = consumer.batch_durations;
        let latency_mean_us = durations.mean();
        let latency_p99_us = durations.percentile(0.99);

        RunReport {
            engine: self.name().to_string(),
            workload: keys.name.clone(),
            counters,
            time_s,
            breakdown,
            energy_j,
            latency_mean_us,
            latency_p99_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcart_baselines::CpuBaseline;
    use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

    fn setup(n_keys: usize, n_ops: usize) -> (KeySet, Vec<Op>, RunConfig) {
        let keys = Workload::Ipgeo.generate(n_keys, 1);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: n_ops, mix: Mix::C, ..Default::default() },
        );
        (keys, ops, RunConfig { concurrency: 4096 })
    }

    #[test]
    fn dcart_c_is_in_the_baselines_ballpark() {
        // Fig. 9: DCART-C "only slightly outperforms" the baselines; at
        // minimum it must be in their ballpark, not an outlier either way.
        let (keys, ops, run) = setup(20_000, 40_000);
        let cpu = CpuConfig::xeon_8468().scaled_for_keys(20_000);
        let dcart_cfg = DcartConfig::default().scaled_for_keys(20_000);
        let dcart_c = DcartSoftware::new(dcart_cfg, cpu).run(&keys, &ops, &run);
        let smart = CpuBaseline::smart(cpu).run(&keys, &ops, &run);
        let speedup = smart.time_s / dcart_c.time_s;
        assert!(
            speedup > 0.5 && speedup < 10.0,
            "DCART-C should be near (ideally modestly above) SMART: {speedup}"
        );
    }

    #[test]
    fn fewer_matches_than_baselines() {
        // Fig. 8 direction: shortcuts cut partial-key matches well below
        // ART's. (The paper's 3–6 % ratio needs the full ops-per-key ratio
        // of paper scale; the calibration integration test checks that.)
        let (keys, ops, run) = setup(20_000, 40_000);
        let cpu = CpuConfig::xeon_8468().scaled_for_keys(20_000);
        let dcart_cfg = DcartConfig::default().scaled_for_keys(20_000);
        let dcart_c = DcartSoftware::new(dcart_cfg, cpu).run(&keys, &ops, &run);
        let art = CpuBaseline::art(cpu).run(&keys, &ops, &run);
        let ratio =
            dcart_c.counters.partial_key_matches as f64 / art.counters.partial_key_matches as f64;
        assert!(ratio < 0.6, "match ratio vs ART: {ratio}");
    }

    #[test]
    fn fewer_contentions_than_baselines() {
        // Fig. 7: DCART's contentions are 3.2–19.7 % of the baselines'.
        let (keys, ops, run) = setup(20_000, 40_000);
        let cpu = CpuConfig::xeon_8468().scaled_for_keys(20_000);
        let dcart_cfg = DcartConfig::default().scaled_for_keys(20_000);
        let dcart_c = DcartSoftware::new(dcart_cfg, cpu).run(&keys, &ops, &run);
        let art = CpuBaseline::art(cpu).run(&keys, &ops, &run);
        assert!(
            dcart_c.counters.lock_contentions * 4 < art.counters.lock_contentions,
            "DCART-C {} vs ART {}",
            dcart_c.counters.lock_contentions,
            art.counters.lock_contentions
        );
    }

    #[test]
    fn combine_time_is_visible() {
        let (keys, ops, run) = setup(5_000, 10_000);
        let cpu = CpuConfig::xeon_8468().scaled_for_keys(5_000);
        let dcart_cfg = DcartConfig::default().scaled_for_keys(5_000);
        let r = DcartSoftware::new(dcart_cfg, cpu).run(&keys, &ops, &run);
        assert!(r.breakdown.combine_s > 0.0);
        assert!(r.counters.shortcut_hits > 0);
        assert!(r.latency_p99_us >= r.latency_mean_us);
    }
}
