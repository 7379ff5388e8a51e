//! Off-chip memory models: DDR (CPU socket) and HBM (FPGA card).
//!
//! These are analytic accumulators, not DRAM timing simulators: each access
//! contributes a latency term and a bandwidth term, and the model reports
//! the larger of "total latency / memory-level parallelism" and
//! "total bytes / peak bandwidth" as the memory time. That captures the two
//! regimes the paper's analysis rests on — ART traversals on CPUs are
//! *latency-bound* (dependent pointer chases, one line at a time), while a
//! well-designed accelerator streams batched requests and is
//! *bandwidth-bound*.

use dcart_engine::faults::{FaultInjector, FaultPlan, FaultSite, RecoveryStats, RetryOutcome};
use serde::{Deserialize, Serialize};

/// Configuration of an off-chip memory system.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Latency of one access in nanoseconds (row activation + transfer).
    pub latency_ns: f64,
    /// Peak bandwidth in bytes per nanosecond (= GB/s).
    pub peak_bw_gbps: f64,
    /// Sustainable memory-level parallelism: how many independent accesses
    /// overlap on average (channels × banks the access stream can keep busy).
    pub parallelism: f64,
    /// Per-channel service occupancy of one request, ns: pipelined
    /// independent requests cost this, not the full latency (validated
    /// against the event-driven [`HbmSim`](crate::HbmSim)).
    pub service_ns: f64,
}

impl MemoryConfig {
    /// DDR4-3200 behind a dual-socket Xeon: ~87 ns loaded latency,
    /// ~200 GB/s per socket pair combined, moderate MLP for pointer chases.
    pub fn ddr_xeon() -> Self {
        MemoryConfig { latency_ns: 87.0, peak_bw_gbps: 200.0, parallelism: 10.0, service_ns: 25.0 }
    }

    /// HBM2 on the Alveo U280: 8 GB over 32 pseudo-channels, ~460 GB/s,
    /// ~106 ns latency, high MLP for independent channel streams.
    pub fn hbm_u280() -> Self {
        MemoryConfig { latency_ns: 106.0, peak_bw_gbps: 460.0, parallelism: 32.0, service_ns: 4.5 }
    }

    /// HBM2e on an A100: ~1555 GB/s, ~200 ns effective latency under load.
    pub fn hbm_a100() -> Self {
        MemoryConfig { latency_ns: 200.0, peak_bw_gbps: 1555.0, parallelism: 64.0, service_ns: 2.5 }
    }
}

/// Accumulates off-chip traffic and converts it to time.
#[derive(Clone, Debug)]
pub struct MemoryModel {
    config: MemoryConfig,
    accesses: u64,
    bytes: u64,
    /// Accesses on the *critical path* (serially dependent, e.g. pointer
    /// chases down a tree); these cannot be overlapped at all.
    dependent_accesses: u64,
    /// Extra latency accumulated from injected transient errors (retry +
    /// backoff + failover), ns. Overlaps across streams like dependent
    /// latency does.
    fault_ns: f64,
    faults: Option<(FaultPlan, FaultInjector, RecoveryStats)>,
}

impl MemoryModel {
    /// Creates an empty accumulator over `config`.
    pub fn new(config: MemoryConfig) -> Self {
        MemoryModel {
            config,
            accesses: 0,
            bytes: 0,
            dependent_accesses: 0,
            fault_ns: 0.0,
            faults: None,
        }
    }

    /// Creates an accumulator that injects transient read errors per
    /// `plan.hbm_transient_rate`, recovering each with bounded
    /// retry-with-backoff (retry time folds into [`MemoryModel::time_ns`]).
    /// An inactive plan behaves exactly like [`MemoryModel::new`].
    // dcart_lint::allow(U1) -- closed-form memory model the event-level HbmSim twin is validated against
    pub fn with_faults(config: MemoryConfig, plan: FaultPlan) -> Self {
        let mut m = MemoryModel::new(config);
        if plan.is_active() {
            m.faults = Some((plan, FaultInjector::for_plan(&plan), RecoveryStats::default()));
        }
        m
    }

    /// Recovery counters accumulated so far (zeros when no plan is active).
    pub fn recovery(&self) -> RecoveryStats {
        self.faults.as_ref().map(|(_, _, r)| *r).unwrap_or_default()
    }

    fn maybe_inject_transient(&mut self) {
        if let Some((plan, inj, rec)) = &mut self.faults {
            if inj.fire(FaultSite::HbmRead, plan.hbm_transient_rate) {
                rec.hbm_transient_errors += 1;
                let base = self.config.latency_ns.ceil() as u64;
                let mut extra = 0u64;
                match inj.retry_transient(
                    FaultSite::HbmRead,
                    plan.hbm_transient_rate,
                    &plan.retry,
                    base,
                    &mut extra,
                ) {
                    RetryOutcome::Recovered { retries } => rec.hbm_retries += u64::from(retries),
                    RetryOutcome::FailedOver => {
                        rec.hbm_retries += u64::from(plan.retry.max_retries);
                        rec.hbm_failovers += 1;
                    }
                }
                rec.hbm_retry_cycles += extra;
                self.fault_ns += extra as f64;
            }
        }
    }

    /// Records an independent access of `bytes` (batched/streamed traffic).
    pub fn access(&mut self, bytes: u64) {
        self.accesses += 1;
        self.bytes += bytes;
        self.maybe_inject_transient();
    }

    /// Records a serially dependent access (the next address is only known
    /// after this one returns — a tree-traversal hop).
    // dcart_lint::allow(U1) -- closed-form memory model the event-level HbmSim twin is validated against
    pub fn dependent_access(&mut self, bytes: u64) {
        self.accesses += 1;
        self.dependent_accesses += 1;
        self.bytes += bytes;
        self.maybe_inject_transient();
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Memory time in nanoseconds for the recorded traffic, assuming
    /// `streams` independent request streams (threads, SOUs, warps).
    ///
    /// Three lower bounds are combined:
    /// * dependent accesses serialize within a stream — each pays the full
    ///   latency, overlapped only across streams;
    /// * independent accesses pipeline through the channels: they cost
    ///   service occupancy (not latency) once enough streams keep the
    ///   channels fed, plus one trailing latency;
    /// * all bytes must cross the pins: `bytes / peak_bw`.
    ///
    /// The formula is validated against the event-driven
    /// [`HbmSim`](crate::HbmSim) in both regimes.
    // dcart_lint::allow(U1) -- closed-form memory model the event-level HbmSim twin is validated against
    pub fn time_ns(&self, streams: f64) -> f64 {
        assert!(streams >= 1.0, "at least one stream required");
        let independent = (self.accesses - self.dependent_accesses) as f64;
        let channels = self.config.parallelism.min(streams.max(1.0));
        let dep_time = self.dependent_accesses as f64 * self.config.latency_ns / streams.max(1.0);
        let indep_time = if independent > 0.0 {
            independent * self.config.service_ns / channels + self.config.latency_ns
        } else {
            0.0
        };
        let bw_time = self.bytes as f64 / self.config.peak_bw_gbps;
        // Retry latency from injected transients serializes within a
        // stream, overlapping only across streams (like dependent hops).
        let fault_time = self.fault_ns / streams.max(1.0);
        bw_time.max(dep_time + indep_time) + fault_time
    }

    /// The configuration in use.
    pub fn config(&self) -> MemoryConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependent_chases_are_latency_bound() {
        let mut m = MemoryModel::new(MemoryConfig::ddr_xeon());
        for _ in 0..1000 {
            m.dependent_access(64);
        }
        // Single stream: 1000 × 87 ns, far above the bandwidth bound.
        let t = m.time_ns(1.0);
        assert!((t - 87_000.0).abs() < 1.0, "{t}");
    }

    #[test]
    fn streams_divide_dependent_time() {
        let mut m = MemoryModel::new(MemoryConfig::ddr_xeon());
        for _ in 0..1000 {
            m.dependent_access(64);
        }
        assert!(m.time_ns(10.0) < m.time_ns(1.0) / 9.0);
    }

    #[test]
    fn bulk_streams_are_bandwidth_bound() {
        let mut m = MemoryModel::new(MemoryConfig::hbm_u280());
        // 1 GB in large independent bursts from many streams.
        for _ in 0..1000 {
            m.access(1 << 20);
        }
        let t = m.time_ns(64.0);
        let bw_bound = (1u64 << 30) as f64 / 460.0;
        assert!((t - bw_bound).abs() / bw_bound < 0.05, "{t} vs {bw_bound}");
    }

    #[test]
    fn mlp_caps_independent_overlap() {
        let cfg = MemoryConfig {
            latency_ns: 100.0,
            peak_bw_gbps: 1e9,
            parallelism: 4.0,
            service_ns: 50.0,
        };
        let mut m = MemoryModel::new(cfg);
        for _ in 0..100 {
            m.access(64);
        }
        // 1000 streams offered, but channel count caps pipelined overlap at
        // 4; one trailing latency for the last request.
        assert!((m.time_ns(1000.0) - (100.0 * 50.0 / 4.0 + 100.0)).abs() < 1.0);
    }

    #[test]
    fn inactive_plan_leaves_time_unchanged() {
        let mut clean = MemoryModel::new(MemoryConfig::hbm_u280());
        let mut faulty = MemoryModel::with_faults(MemoryConfig::hbm_u280(), FaultPlan::none());
        for _ in 0..1000 {
            clean.dependent_access(64);
            faulty.dependent_access(64);
        }
        assert_eq!(clean.time_ns(8.0), faulty.time_ns(8.0));
        assert_eq!(faulty.recovery(), RecoveryStats::default());
    }

    #[test]
    fn transient_errors_add_bounded_retry_time() {
        let plan = FaultPlan { seed: 9, hbm_transient_rate: 0.05, ..FaultPlan::none() };
        let mut clean = MemoryModel::new(MemoryConfig::hbm_u280());
        let mut faulty = MemoryModel::with_faults(MemoryConfig::hbm_u280(), plan);
        for _ in 0..10_000 {
            clean.dependent_access(64);
            faulty.dependent_access(64);
        }
        let r = faulty.recovery();
        assert!(r.hbm_transient_errors > 0);
        assert!(r.hbm_retries >= r.hbm_transient_errors);
        let clean_t = clean.time_ns(1.0);
        let faulty_t = faulty.time_ns(1.0);
        assert!(faulty_t > clean_t, "{faulty_t} vs {clean_t}");
        // Bounded recovery: even at 5% error rate the overhead stays small
        // relative to the clean run (retries are per-error, not unbounded).
        assert!(faulty_t < clean_t * 2.0, "{faulty_t} vs {clean_t}");
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MemoryModel::new(MemoryConfig::hbm_a100());
        m.access(128);
        m.dependent_access(64);
        assert_eq!(m.accesses(), 2);
        assert_eq!(m.bytes(), 192);
    }
}
