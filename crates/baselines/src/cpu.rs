//! Analytic multicore CPU timing model.
//!
//! Converts the exact event counts of a traced run (cache-replayed line
//! hits/misses, partial-key matches, lock acquisitions and contentions)
//! into execution time, a time breakdown, energy, and latency percentiles
//! for a dual-socket Xeon like the paper's evaluation machine.
//!
//! The model captures the three effects the paper quantifies:
//!
//! * traversals are *dependent* pointer chases — misses cost full memory
//!   latency and overlap only across threads (Fig. 2(a));
//! * atomics slow down ~15× when their line is in DRAM rather than cache
//!   (paper §II-B, citing Schweizer et al.);
//! * contended hot nodes serialize: the longest per-node lock queue of a
//!   concurrency window is a critical path no thread count can hide
//!   (Fig. 2(e)).

use dcart_engine::LatencyRecorder;
use dcart_mem::{EnergyModel, MemoryConfig};

use crate::report::TimeBreakdown;

/// Parameters of the CPU platform.
#[derive(Clone, Copy, Debug)]
pub struct CpuConfig {
    /// Hardware threads the engine uses.
    pub threads: usize,
    /// Aggregate last-level cache (both sockets), bytes. Scale this with
    /// the key count when running below paper scale so the cached fraction
    /// of the tree matches the paper's regime.
    pub cache_bytes: usize,
    /// Cache associativity for the replay cache.
    pub cache_ways: usize,
    /// Average cost of a cache-resident node-line access, ns.
    pub hit_ns: f64,
    /// Off-chip memory configuration.
    pub mem: MemoryConfig,
    /// Atomic RMW on a cache-resident line, ns.
    pub atomic_cached_ns: f64,
    /// Atomic RMW on a DRAM-resident line, ns (~15× the cached cost).
    pub atomic_mem_ns: f64,
    /// Extra cost of a contended acquisition (coherence handoff, retry), ns.
    pub contention_ns: f64,
    /// Serialized cost of a contended acquisition: lock convoys on hot
    /// nodes globally serialize (paper Fig. 2(d): sync grows to >60 % of
    /// runtime); charged on the critical path, undivided by threads.
    /// CAS-based protocols (Heart, SMART) retry more cheaply than ROWEX
    /// lock queues, so engines override this per protocol.
    pub contention_serial_ns: f64,
    /// Lock hold time of one serialized critical section, ns.
    pub lock_hold_ns: f64,
    /// One partial-key comparison, ns.
    pub match_ns: f64,
    /// Fixed per-operation software overhead, ns.
    pub op_overhead_ns: f64,
}

impl CpuConfig {
    /// The paper's evaluation machine: 2 × 48-core Xeon Platinum 8468,
    /// 96 threads, 210 MB combined LLC, DDR5 behind two sockets.
    pub fn xeon_8468() -> Self {
        CpuConfig {
            threads: 96,
            cache_bytes: 210 * 1024 * 1024,
            cache_ways: 15,
            hit_ns: 8.0,
            mem: MemoryConfig::ddr_xeon(),
            atomic_cached_ns: 10.0,
            atomic_mem_ns: 150.0,
            contention_ns: 350.0,
            contention_serial_ns: 800.0,
            lock_hold_ns: 120.0,
            match_ns: 0.5,
            op_overhead_ns: 15.0,
        }
    }

    /// Scales the cache so that `keys` occupies the same *fraction* of LLC
    /// as 50 M keys would at paper scale, keeping the hit-ratio regime
    /// comparable when reproducing below paper size.
    pub fn scaled_for_keys(mut self, keys: usize) -> Self {
        let scale = (keys as f64 / 50_000_000.0).min(1.0);
        let scaled = (self.cache_bytes as f64 * scale) as usize;
        // Keep a sane floor and geometry (multiple of ways × 64).
        let unit = self.cache_ways * 64;
        self.cache_bytes = (scaled / unit).max(16) * unit;
        self
    }
}

/// Aggregated activity of a run on the CPU, ready for timing.
#[derive(Clone, Debug, Default)]
pub struct CpuActivity {
    /// Operations executed.
    pub ops: u64,
    /// Node-line accesses that hit in cache.
    pub line_hits: u64,
    /// Node-line accesses that missed to DRAM (dependent chases).
    pub line_misses: u64,
    /// Partial-key comparisons.
    pub matches: u64,
    /// Lock/CAS acquisitions.
    pub lock_acquisitions: u64,
    /// Contended acquisitions.
    pub lock_contentions: u64,
    /// Sum over windows of the longest per-node lock queue.
    pub critical_chain: u64,
    /// Longest per-node lock queue of each window (latency tail).
    pub max_queue_history: Vec<u64>,
    /// Software combining / shortcut-maintenance time already in ns
    /// (DCART-C charges its runtime overhead here).
    pub combine_ns: f64,
}

/// Result of the CPU timing model.
#[derive(Clone, Debug)]
pub struct CpuTiming {
    /// Total modelled wall-clock seconds.
    pub time_s: f64,
    /// Breakdown into traversal / sync / combine / other.
    pub breakdown: TimeBreakdown,
    /// Modelled energy in joules.
    pub energy_j: f64,
    /// Mean per-op latency, µs.
    pub latency_mean_us: f64,
    /// P99 per-op latency, µs.
    pub latency_p99_us: f64,
}

/// Applies the timing model to an activity aggregate.
pub fn time_cpu_run(config: &CpuConfig, activity: &CpuActivity, energy: &EnergyModel) -> CpuTiming {
    let threads = config.threads as f64;

    // Traversal: misses are dependent chases overlapped across threads up
    // to the memory system's parallelism; plus a bandwidth floor.
    let overlap = threads.min(config.mem.parallelism).max(1.0);
    let miss_ns = activity.line_misses as f64 * config.mem.latency_ns / overlap;
    let bw_ns = (activity.line_misses * 64) as f64 / config.mem.peak_bw_gbps;
    let hit_ns = activity.line_hits as f64 * config.hit_ns / threads;
    let match_ns = activity.matches as f64 * config.match_ns / threads;
    let traversal_ns = miss_ns.max(bw_ns) + hit_ns + match_ns;

    // Synchronization: atomics cost more when the lock word is not
    // cache-resident; contended acquisitions add a handoff; the hottest
    // node of each window serializes.
    let total_lines = (activity.line_hits + activity.line_misses).max(1);
    let miss_frac = activity.line_misses as f64 / total_lines as f64;
    let atomic_ns = config.atomic_cached_ns * (1.0 - miss_frac) + config.atomic_mem_ns * miss_frac;
    let sync_par_ns = (activity.lock_acquisitions as f64 * atomic_ns
        + activity.lock_contentions as f64 * config.contention_ns)
        / threads;
    let sync_serial_ns = activity.critical_chain as f64 * config.lock_hold_ns
        + activity.lock_contentions as f64 * config.contention_serial_ns;
    let sync_ns = sync_par_ns + sync_serial_ns;

    let other_ns = activity.ops as f64 * config.op_overhead_ns / threads;
    let combine_ns = activity.combine_ns / threads;

    let total_ns = traversal_ns + sync_ns + combine_ns + other_ns;
    let time_s = total_ns * 1e-9;

    let breakdown = TimeBreakdown {
        traversal_s: traversal_ns * 1e-9,
        sync_s: sync_ns * 1e-9,
        combine_s: combine_ns * 1e-9,
        other_s: other_ns * 1e-9,
    };

    // Latency: the mean is per-thread service time; the tail adds the
    // queueing delay behind the window's hottest lock.
    let latency_mean_us =
        if activity.ops == 0 { 0.0 } else { total_ns * threads / activity.ops as f64 / 1e3 };
    let mut queue = LatencyRecorder::new();
    for &q in &activity.max_queue_history {
        queue.record(q as f64 * config.lock_hold_ns / 1e3);
    }
    let latency_p99_us = latency_mean_us + queue.percentile(0.99);

    let offchip_bytes = activity.line_misses * 64;
    let onchip = activity.line_hits + activity.lock_acquisitions;
    let energy_j = energy.energy_joules(time_s, offchip_bytes, onchip);

    CpuTiming { time_s, breakdown, energy_j, latency_mean_us, latency_p99_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_activity() -> CpuActivity {
        CpuActivity {
            ops: 1_000_000,
            line_hits: 3_000_000,
            line_misses: 2_000_000,
            matches: 10_000_000,
            lock_acquisitions: 500_000,
            lock_contentions: 100_000,
            critical_chain: 5_000,
            max_queue_history: vec![3; 100],
            combine_ns: 0.0,
        }
    }

    #[test]
    fn misses_dominate_hits() {
        let cfg = CpuConfig::xeon_8468();
        let e = EnergyModel::cpu_xeon();
        let mut hit_heavy = base_activity();
        hit_heavy.line_misses = 0;
        hit_heavy.line_hits = 5_000_000;
        let mut miss_heavy = base_activity();
        miss_heavy.line_misses = 5_000_000;
        miss_heavy.line_hits = 0;
        let t_hit = time_cpu_run(&cfg, &hit_heavy, &e).time_s;
        let t_miss = time_cpu_run(&cfg, &miss_heavy, &e).time_s;
        assert!(t_miss > 1.5 * t_hit, "{t_miss} vs {t_hit}");
    }

    #[test]
    fn contention_adds_sync_time() {
        let cfg = CpuConfig::xeon_8468();
        let e = EnergyModel::cpu_xeon();
        let calm = base_activity();
        let mut hot = base_activity();
        hot.lock_contentions *= 20;
        hot.critical_chain *= 20;
        let calm_t = time_cpu_run(&cfg, &calm, &e);
        let hot_t = time_cpu_run(&cfg, &hot, &e);
        assert!(hot_t.breakdown.sync_fraction() > calm_t.breakdown.sync_fraction());
        assert!(hot_t.time_s > calm_t.time_s);
    }

    #[test]
    fn serial_chain_defeats_thread_scaling() {
        let mut cfg = CpuConfig::xeon_8468();
        let e = EnergyModel::cpu_xeon();
        let mut act = base_activity();
        act.critical_chain = 10_000_000; // pathological hot lock
        let t96 = time_cpu_run(&cfg, &act, &e).time_s;
        cfg.threads = 192;
        let t192 = time_cpu_run(&cfg, &act, &e).time_s;
        // Doubling threads barely helps when serialized.
        assert!(t192 > 0.8 * t96, "{t192} vs {t96}");
    }

    #[test]
    fn p99_exceeds_mean_under_queueing() {
        let cfg = CpuConfig::xeon_8468();
        let e = EnergyModel::cpu_xeon();
        let mut act = base_activity();
        act.max_queue_history = vec![1, 1, 1, 1, 200];
        let t = time_cpu_run(&cfg, &act, &e);
        assert!(t.latency_p99_us > t.latency_mean_us + 10.0);
    }

    #[test]
    fn scaled_cache_shrinks_with_keys() {
        let cfg = CpuConfig::xeon_8468();
        let small = cfg.scaled_for_keys(1_000_000);
        assert!(small.cache_bytes < cfg.cache_bytes / 40);
        assert_eq!(cfg.scaled_for_keys(50_000_000).cache_bytes, cfg.cache_bytes);
        // Geometry stays valid for SetAssocCache.
        assert_eq!(small.cache_bytes % (small.cache_ways * 64), 0);
    }

    #[test]
    fn energy_scales_with_time() {
        let cfg = CpuConfig::xeon_8468();
        let e = EnergyModel::cpu_xeon();
        let act = base_activity();
        let t = time_cpu_run(&cfg, &act, &e);
        let expect = 180.0 * t.time_s;
        assert!((t.energy_j - expect).abs() / expect < 0.2);
    }
}
