//! The CPU baseline engines: ART (ROWEX), SMART, and Heart.
//!
//! All three execute the identical functional trace (see
//! [`execute_with_traces`](crate::execute_with_traces)) and differ in how
//! their concurrency-control protocol and caching structure cost it:
//!
//! | engine | concurrency control | extra structure |
//! |--------|--------------------|-----------------|
//! | ART    | ROWEX node locks (2 atomics per lock, full contention cost) | — |
//! | Heart  | CAS (1 atomic per lock point, cheaper handoff)              | — |
//! | SMART  | CAS                                                         | path cache skipping upper levels |
//!
//! This matches the paper's characterization: SMART is the strongest CPU
//! baseline under all circumstances (Fig. 2(a)), Heart sits between it and
//! plain ART, and all three remain dominated by traversal + sync time.

use dcart_mem::{Access, EnergyModel, SetAssocCache};
use dcart_workloads::{KeySet, Op};

use crate::cpu::{time_cpu_run, CpuActivity, CpuConfig};
use crate::engine::{IndexEngine, RunConfig};
use crate::exec::execute_with_traces;
use crate::path_cache::PathCache;
use crate::report::{Counters, RunReport};
use crate::windows::{ContentionWindow, RedundancyWindow};

/// Which CPU baseline protocol to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    /// ROWEX node-level write locks (ART [Leis et al. '16]).
    RowexLocks,
    /// CAS-based write points (Heart, SMART).
    Cas,
}

/// A CPU baseline engine (ART, SMART, or Heart).
///
/// # Examples
///
/// ```
/// use dcart_baselines::{CpuBaseline, CpuConfig, IndexEngine, RunConfig};
/// use dcart_workloads::{generate_ops, OpStreamConfig, Workload};
///
/// let keys = Workload::Ipgeo.generate(2_000, 1);
/// let ops = generate_ops(&keys, &OpStreamConfig { count: 5_000, ..Default::default() });
/// let mut smart = CpuBaseline::smart(CpuConfig::xeon_8468().scaled_for_keys(2_000));
/// let report = smart.run(&keys, &ops, &RunConfig::default());
/// assert_eq!(report.counters.ops, 5_000);
/// assert!(report.breakdown.sync_s > 0.0, "writes contend");
/// ```
#[derive(Debug)]
pub struct CpuBaseline {
    name: &'static str,
    protocol: Protocol,
    /// SMART's path cache parameters, if any.
    path_cache: Option<(usize, usize, usize)>,
    config: CpuConfig,
}

impl CpuBaseline {
    /// The ART baseline \[9\]: operation-centric traversal, ROWEX locks.
    /// Lock queues convoy harder than CAS retries, so the serialized
    /// contention cost is raised accordingly.
    pub fn art(mut config: CpuConfig) -> Self {
        config.contention_serial_ns *= 3.8;
        CpuBaseline { name: "ART", protocol: Protocol::RowexLocks, path_cache: None, config }
    }

    /// The Heart baseline \[17\]: CAS-based concurrency control.
    pub fn heart(config: CpuConfig) -> Self {
        CpuBaseline { name: "Heart", protocol: Protocol::Cas, path_cache: None, config }
    }

    /// The SMART baseline \[11\], ported to shared memory: CAS-based plus a
    /// path cache over 2-byte prefixes that skips the top two tree levels.
    pub fn smart(config: CpuConfig) -> Self {
        CpuBaseline {
            name: "SMART",
            protocol: Protocol::Cas,
            path_cache: Some((2, 2, 1 << 16)),
            config,
        }
    }
}

impl IndexEngine for CpuBaseline {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, keys: &KeySet, ops: &[Op], run: &RunConfig) -> RunReport {
        let mut cache = SetAssocCache::new(self.config.cache_bytes, self.config.cache_ways);
        let mut redundancy = RedundancyWindow::new(run.concurrency);
        let mut contention = ContentionWindow::new(run.concurrency);
        let mut path_cache =
            self.path_cache.map(|(plen, skip, cap)| PathCache::new(plen, skip, cap));

        let mut counters = Counters::default();
        let mut activity = CpuActivity::default();
        let atomics_per_lock: u64 = match self.protocol {
            Protocol::RowexLocks => 2, // acquire + release
            Protocol::Cas => 1,
        };

        execute_with_traces(keys, ops, |op| {
            counters.ops += 1;
            if op.kind.is_write() {
                counters.writes += 1;
            } else {
                counters.reads += 1;
            }

            let visits = &op.trace.visits;
            let skip = match &mut path_cache {
                Some(pc) => pc.lookup(op.key, visits.len()),
                None => 0,
            };
            let kept = &visits[skip..];
            for v in kept {
                counters.nodes_traversed += 1;
                counters.useful_bytes += u64::from(v.useful_bytes);
                counters.fetched_bytes += u64::from(v.lines) * 64;
                // Replay the node's lines through the shared cache; the
                // first line of a node is a dependent chase.
                let base = u64::from(v.node.index()) * 256;
                for i in 0..u64::from(v.lines) {
                    match cache.access(base + i * 64) {
                        Access::Hit => activity.line_hits += 1,
                        Access::Miss => activity.line_misses += 1,
                    }
                }
            }
            redundancy.record_op(kept.iter().map(|v| v.node));

            // Matches scale with the visits actually performed.
            let matches = if visits.is_empty() {
                0
            } else {
                op.trace.partial_key_matches * kept.len() as u64 / visits.len() as u64
            };
            counters.partial_key_matches += matches;
            activity.matches += matches;

            // Operation-centric locking: every write op acquires its own
            // locks, colliding with concurrent ops in the window.
            if !op.trace.locks.is_empty() {
                counters.lock_acquisitions += op.trace.locks.len() as u64 * atomics_per_lock;
                contention.record_unit(op.trace.locks.iter().copied());
            }
        });

        counters.redundant_node_visits = redundancy.redundant_visits;
        let (totals, history) = contention.finish();
        counters.lock_contentions = totals.contentions;
        counters.offchip_accesses = activity.line_misses;
        counters.offchip_bytes = activity.line_misses * 64;
        counters.cache_hits = activity.line_hits;
        counters.cache_misses = activity.line_misses;

        activity.ops = counters.ops;
        activity.lock_acquisitions = counters.lock_acquisitions;
        activity.lock_contentions = totals.contentions;
        activity.critical_chain = totals.critical_chain;
        activity.max_queue_history = history;

        let timing = time_cpu_run(&self.config, &activity, &EnergyModel::cpu_xeon());
        RunReport {
            engine: self.name.to_string(),
            workload: keys.name.clone(),
            counters,
            time_s: timing.time_s,
            breakdown: timing.breakdown,
            energy_j: timing.energy_j,
            latency_mean_us: timing.latency_mean_us,
            latency_p99_us: timing.latency_p99_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

    fn small_config(keys: usize) -> CpuConfig {
        CpuConfig::xeon_8468().scaled_for_keys(keys)
    }

    fn run_engine(mut e: CpuBaseline, n_keys: usize, n_ops: usize, mix: Mix) -> RunReport {
        let keys = Workload::Ipgeo.generate(n_keys, 1);
        let ops = generate_ops(&keys, &OpStreamConfig { count: n_ops, mix, ..Default::default() });
        e.run(&keys, &ops, &RunConfig { concurrency: 4096 })
    }

    #[test]
    fn smart_beats_heart_beats_art() {
        let cfg = small_config(20_000);
        let art = run_engine(CpuBaseline::art(cfg), 20_000, 40_000, Mix::C);
        let heart = run_engine(CpuBaseline::heart(cfg), 20_000, 40_000, Mix::C);
        let smart = run_engine(CpuBaseline::smart(cfg), 20_000, 40_000, Mix::C);
        assert!(smart.time_s < heart.time_s, "{} vs {}", smart.time_s, heart.time_s);
        assert!(heart.time_s < art.time_s, "{} vs {}", heart.time_s, art.time_s);
    }

    #[test]
    fn smart_performs_fewer_matches_and_visits() {
        let cfg = small_config(20_000);
        let art = run_engine(CpuBaseline::art(cfg), 20_000, 40_000, Mix::C);
        let smart = run_engine(CpuBaseline::smart(cfg), 20_000, 40_000, Mix::C);
        assert!(smart.counters.partial_key_matches < art.counters.partial_key_matches * 8 / 10);
        assert!(smart.counters.nodes_traversed < art.counters.nodes_traversed);
    }

    #[test]
    fn traversal_and_sync_dominate() {
        // Paper Fig. 2(a): >95.8 % of SMART's time is traversal + sync.
        let cfg = small_config(20_000);
        let smart = run_engine(CpuBaseline::smart(cfg), 20_000, 40_000, Mix::C);
        let b = &smart.breakdown;
        let dominant = (b.traversal_s + b.sync_s) / b.total_s();
        assert!(dominant > 0.9, "traversal+sync share {dominant}");
    }

    #[test]
    fn redundancy_is_high_under_skew() {
        // Paper Fig. 2(b): 77.8–86.1 % of traversed nodes are redundant.
        let cfg = small_config(20_000);
        let art = run_engine(CpuBaseline::art(cfg), 20_000, 40_000, Mix::C);
        let r = art.counters.redundancy_ratio();
        assert!(r > 0.6, "redundancy {r}");
    }

    #[test]
    fn line_utilization_is_poor() {
        // Paper Fig. 2(c): ~20 % average cache-line utilization.
        let cfg = small_config(20_000);
        let art = run_engine(CpuBaseline::art(cfg), 20_000, 40_000, Mix::C);
        let u = art.counters.line_utilization();
        assert!(u < 0.4, "utilization {u}");
        assert!(u > 0.02, "utilization {u}");
    }

    #[test]
    fn write_ratio_degrades_throughput() {
        // Paper Fig. 2(e): performance deteriorates as writes increase.
        let cfg = small_config(10_000);
        let read_only = run_engine(CpuBaseline::art(cfg), 10_000, 30_000, Mix::A);
        let write_only = run_engine(CpuBaseline::art(cfg), 10_000, 30_000, Mix::E);
        assert!(write_only.time_s > read_only.time_s);
        assert!(write_only.breakdown.sync_fraction() > read_only.breakdown.sync_fraction());
    }

    #[test]
    fn more_concurrency_raises_sync_share() {
        // Paper Fig. 2(d): sync share grows with concurrent operations.
        let cfg = small_config(10_000);
        let keys = Workload::Ipgeo.generate(10_000, 1);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 30_000, mix: Mix::C, ..Default::default() },
        );
        let mut art = CpuBaseline::art(cfg);
        let low = art.run(&keys, &ops, &RunConfig { concurrency: 64 });
        let high = art.run(&keys, &ops, &RunConfig { concurrency: 16_384 });
        assert!(
            high.breakdown.sync_fraction() > low.breakdown.sync_fraction(),
            "{} vs {}",
            high.breakdown.sync_fraction(),
            low.breakdown.sync_fraction()
        );
    }
}
