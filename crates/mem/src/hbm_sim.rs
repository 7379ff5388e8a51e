//! Event-driven HBM channel simulation.
//!
//! The analytic [`MemoryModel`](crate::MemoryModel) converts aggregate
//! traffic into time with closed-form bounds; this module simulates the
//! same memory at the next level of fidelity — per-pseudo-channel request
//! queues with service latency and per-channel bandwidth — so the analytic
//! shortcut can be *validated* instead of trusted (see the
//! `analytic_vs_event_driven` test and the `hbm` bench).
//!
//! Addresses map to channels by address-interleaving, as on the U280
//! (256-byte granularity across 32 pseudo-channels).

use dcart_engine::faults::{FaultInjector, FaultPlan, FaultSite, RecoveryStats, RetryOutcome};
use serde::{Deserialize, Serialize};

/// Configuration of the channel-level simulator.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HbmSimConfig {
    /// Pseudo-channels.
    pub channels: usize,
    /// Interleave granularity in bytes.
    pub interleave_bytes: u64,
    /// Unloaded request latency (queue-empty round trip), ns.
    pub latency_ns: f64,
    /// Per-channel service time per request once pipelined (the inverse of
    /// a channel's request rate), ns.
    pub service_ns: f64,
    /// Per-channel data rate, bytes/ns.
    pub channel_bw_gbps: f64,
}

impl HbmSimConfig {
    /// The Alveo U280's 8 GB HBM2: 32 pseudo-channels of ~14.4 GB/s.
    // dcart_lint::allow(U1) -- event-level twin that validates the closed-form MemoryModel
    pub fn u280() -> Self {
        HbmSimConfig {
            channels: 32,
            interleave_bytes: 256,
            latency_ns: 106.0,
            service_ns: 4.5,
            channel_bw_gbps: 14.4,
        }
    }
}

/// One completed request's timing.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// When the request was issued, ns.
    pub issue_ns: f64,
    /// When its data returned, ns.
    pub done_ns: f64,
}

/// An event-driven multi-channel memory.
///
/// Requests are issued with a timestamp; each lands in its channel's queue
/// and completes after max(queue drain, service) + latency. The simulator
/// is deterministic and processes requests in issue order.
///
/// # Examples
///
/// ```
/// use dcart_mem::{HbmSim, HbmSimConfig};
///
/// let mut hbm = HbmSim::new(HbmSimConfig::u280());
/// let first = hbm.request(0.0, 0x0000, 64);
/// let conflicting = hbm.request(0.0, 0x0000, 64); // same channel: queues
/// let parallel = hbm.request(0.0, 0x0100, 64);    // next channel: overlaps
/// assert!(conflicting.done_ns > first.done_ns);
/// assert!((parallel.done_ns - first.done_ns).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct HbmSim {
    config: HbmSimConfig,
    /// Time each channel becomes free.
    channel_free_ns: Vec<f64>,
    requests: u64,
    bytes: u64,
    busy_ns_total: f64,
    last_done_ns: f64,
    faults: Option<FaultState>,
}

/// Fault-injection state (present only when a plan is active).
#[derive(Clone, Debug)]
struct FaultState {
    plan: FaultPlan,
    injector: FaultInjector,
    recovery: RecoveryStats,
}

impl HbmSim {
    /// Creates an idle memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no channels.
    pub fn new(config: HbmSimConfig) -> Self {
        assert!(config.channels > 0, "at least one channel required");
        HbmSim {
            config,
            channel_free_ns: vec![0.0; config.channels],
            requests: 0,
            bytes: 0,
            busy_ns_total: 0.0,
            last_done_ns: 0.0,
            faults: None,
        }
    }

    /// Creates an idle memory with deterministic fault injection per
    /// `plan`: per-channel stalls (`hbm_stall_rate` / `hbm_stall_ns`) and
    /// transient read errors (`hbm_transient_rate`) recovered by bounded
    /// retry-with-backoff, failing over to a doubled re-issue when retries
    /// are exhausted. An inactive plan behaves exactly like [`HbmSim::new`].
    // dcart_lint::allow(U1) -- event-level twin that validates the closed-form MemoryModel
    pub fn with_faults(config: HbmSimConfig, plan: FaultPlan) -> Self {
        let mut sim = HbmSim::new(config);
        if plan.is_active() {
            sim.faults = Some(FaultState {
                plan,
                injector: FaultInjector::for_plan(&plan),
                recovery: RecoveryStats::default(),
            });
        }
        sim
    }

    /// Recovery counters accumulated so far (zeros when no plan is active).
    pub fn recovery(&self) -> RecoveryStats {
        self.faults.as_ref().map(|f| f.recovery).unwrap_or_default()
    }

    /// Channel an address interleaves to.
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.config.interleave_bytes) % self.config.channels as u64) as usize
    }

    /// Issues a request for `bytes` at `addr` at time `issue_ns`; returns
    /// its completion time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn request(&mut self, issue_ns: f64, addr: u64, bytes: u32) -> Completion {
        assert!(bytes > 0, "empty request");
        let ch = self.channel_of(addr);
        // Injected channel stall: the channel is unavailable for a while
        // (refresh collision / retraining), delaying this and later
        // requests that land on it.
        if let Some(fs) = &mut self.faults {
            if fs.injector.fire(FaultSite::HbmChannel, fs.plan.hbm_stall_rate) {
                self.channel_free_ns[ch] =
                    self.channel_free_ns[ch].max(issue_ns) + fs.plan.hbm_stall_ns;
                fs.recovery.hbm_channel_stalls += 1;
                fs.recovery.hbm_stall_ns += fs.plan.hbm_stall_ns;
            }
        }
        let transfer_ns = f64::from(bytes) / self.config.channel_bw_gbps;
        let occupancy = self.config.service_ns.max(transfer_ns);
        let start = issue_ns.max(self.channel_free_ns[ch]);
        self.channel_free_ns[ch] = start + occupancy;
        let mut done = start + occupancy + self.config.latency_ns;
        // Injected transient read error: bounded retry-with-backoff on the
        // same channel; on exhaustion, fail over (re-issue at double cost).
        // Either way the data arrives — correctness is never affected.
        if let Some(fs) = &mut self.faults {
            if fs.injector.fire(FaultSite::HbmRead, fs.plan.hbm_transient_rate) {
                fs.recovery.hbm_transient_errors += 1;
                let base = self.config.latency_ns.ceil() as u64;
                let mut extra = 0u64;
                match fs.injector.retry_transient(
                    FaultSite::HbmRead,
                    fs.plan.hbm_transient_rate,
                    &fs.plan.retry,
                    base,
                    &mut extra,
                ) {
                    RetryOutcome::Recovered { retries } => {
                        fs.recovery.hbm_retries += u64::from(retries)
                    }
                    RetryOutcome::FailedOver => {
                        fs.recovery.hbm_retries += u64::from(fs.plan.retry.max_retries);
                        fs.recovery.hbm_failovers += 1;
                    }
                }
                fs.recovery.hbm_retry_cycles += extra;
                let extra_ns = extra as f64;
                done += extra_ns;
                // The retried transfers re-occupy the channel.
                self.channel_free_ns[ch] += extra_ns;
            }
        }
        self.requests += 1;
        self.bytes += u64::from(bytes);
        self.busy_ns_total += occupancy;
        if done > self.last_done_ns {
            self.last_done_ns = done;
        }
        Completion { issue_ns, done_ns: done }
    }

    /// Time the last completed request returned, ns.
    // dcart_lint::allow(U1) -- event-level twin that validates the closed-form MemoryModel
    pub fn drain_ns(&self) -> f64 {
        self.last_done_ns
    }

    /// Total requests issued.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Aggregate channel utilization over `[0, horizon_ns]`.
    // dcart_lint::allow(U1) -- event-level twin that validates the closed-form MemoryModel
    pub fn utilization(&self, horizon_ns: f64) -> f64 {
        if horizon_ns <= 0.0 {
            0.0
        } else {
            (self.busy_ns_total / (horizon_ns * self.config.channels as f64)).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryConfig, MemoryModel};

    #[test]
    fn single_request_costs_latency_plus_service() {
        let mut hbm = HbmSim::new(HbmSimConfig::u280());
        let c = hbm.request(10.0, 0, 64);
        assert!((c.done_ns - (10.0 + 4.5 + 106.0)).abs() < 1e-6, "{c:?}");
    }

    #[test]
    fn same_channel_serializes_different_channels_overlap() {
        let cfg = HbmSimConfig::u280();
        let mut hbm = HbmSim::new(cfg);
        let a = hbm.request(0.0, 0, 64);
        let b = hbm.request(0.0, 0, 64); // same channel
        assert!((b.done_ns - a.done_ns - cfg.service_ns).abs() < 1e-6);
        let mut hbm2 = HbmSim::new(cfg);
        let xs: Vec<Completion> =
            (0..cfg.channels as u64).map(|i| hbm2.request(0.0, i * 256, 64)).collect();
        let first = xs[0].done_ns;
        assert!(xs.iter().all(|c| (c.done_ns - first).abs() < 1e-6), "all channels parallel");
    }

    #[test]
    fn interleaving_spreads_addresses() {
        let hbm = HbmSim::new(HbmSimConfig::u280());
        let mut seen = std::collections::HashSet::new();
        for i in 0..32u64 {
            seen.insert(hbm.channel_of(i * 256));
        }
        assert_eq!(seen.len(), 32);
        assert_eq!(hbm.channel_of(0), hbm.channel_of(255), "same line, same channel");
    }

    /// The analytic MemoryModel's time must agree with the event-driven
    /// simulation within modelling tolerance, in both regimes.
    #[test]
    fn analytic_vs_event_driven() {
        let cfg = HbmSimConfig::u280();

        // Regime 1: saturating independent traffic from many streams.
        let mut hbm = HbmSim::new(cfg);
        let mut analytic = MemoryModel::new(MemoryConfig::hbm_u280());
        let n = 50_000u64;
        for i in 0..n {
            // Issue everything up front: fully open-loop load.
            hbm.request(0.0, i * 256, 64);
            analytic.access(64);
        }
        let sim = hbm.drain_ns();
        let model = analytic.time_ns(1_000.0);
        let ratio = model / sim;
        assert!(
            (0.4..2.5).contains(&ratio),
            "saturated: analytic {model} vs simulated {sim} (ratio {ratio})"
        );

        // Regime 2: a serial pointer chase — one outstanding request.
        let mut hbm = HbmSim::new(cfg);
        let mut analytic = MemoryModel::new(MemoryConfig::hbm_u280());
        let mut now = 0.0;
        for i in 0..1_000u64 {
            let c = hbm.request(now, i * 977 * 256, 64);
            now = c.done_ns;
            analytic.dependent_access(64);
        }
        let sim = now;
        let model = analytic.time_ns(1.0);
        let ratio = model / sim;
        assert!(
            (0.7..1.3).contains(&ratio),
            "serial: analytic {model} vs simulated {sim} (ratio {ratio})"
        );
    }

    #[test]
    fn inactive_fault_plan_matches_clean_sim_exactly() {
        let cfg = HbmSimConfig::u280();
        let mut clean = HbmSim::new(cfg);
        let mut faulty = HbmSim::with_faults(cfg, FaultPlan::none());
        for i in 0..5_000u64 {
            let a = clean.request(0.0, i * 192, 64);
            let b = faulty.request(0.0, i * 192, 64);
            assert_eq!(a, b);
        }
        assert_eq!(faulty.recovery(), RecoveryStats::default());
    }

    #[test]
    fn transient_errors_retry_and_slow_the_run() {
        let cfg = HbmSimConfig::u280();
        let plan = FaultPlan { seed: 7, hbm_transient_rate: 0.02, ..FaultPlan::none() };
        let mut clean = HbmSim::new(cfg);
        let mut faulty = HbmSim::with_faults(cfg, plan);
        for i in 0..20_000u64 {
            clean.request(0.0, i * 256, 64);
            faulty.request(0.0, i * 256, 64);
        }
        let r = faulty.recovery();
        assert!(r.hbm_transient_errors > 0, "{r:?}");
        assert!(r.hbm_retries >= r.hbm_transient_errors, "every error retries at least once");
        assert!(r.hbm_retry_cycles > 0);
        assert!(faulty.drain_ns() > clean.drain_ns(), "retries cost time");
    }

    #[test]
    fn channel_stalls_are_counted_and_delay_their_channel() {
        let cfg = HbmSimConfig::u280();
        let plan =
            FaultPlan { seed: 11, hbm_stall_rate: 1.0, hbm_stall_ns: 500.0, ..FaultPlan::none() };
        let mut faulty = HbmSim::with_faults(cfg, plan);
        let c = faulty.request(0.0, 0, 64);
        assert!((c.done_ns - (500.0 + 4.5 + 106.0)).abs() < 1e-6, "{c:?}");
        let r = faulty.recovery();
        assert_eq!(r.hbm_channel_stalls, 1);
        assert!((r.hbm_stall_ns - 500.0).abs() < 1e-9);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let cfg = HbmSimConfig::u280();
        let plan = FaultPlan {
            seed: 3,
            hbm_transient_rate: 0.05,
            hbm_stall_rate: 0.01,
            hbm_stall_ns: 200.0,
            ..FaultPlan::none()
        };
        let run = |p: FaultPlan| {
            let mut sim = HbmSim::with_faults(cfg, p);
            for i in 0..10_000u64 {
                sim.request(0.0, i * 320, 64);
            }
            (sim.drain_ns(), sim.recovery())
        };
        let (t1, r1) = run(plan);
        let (t2, r2) = run(plan);
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn utilization_bounded_and_meaningful() {
        let mut hbm = HbmSim::new(HbmSimConfig::u280());
        for i in 0..10_000u64 {
            hbm.request(0.0, i * 64, 64);
        }
        let u = hbm.utilization(hbm.drain_ns());
        assert!(u > 0.3 && u <= 1.0, "{u}");
        assert_eq!(hbm.requests(), 10_000);
        assert_eq!(hbm.bytes(), 640_000);
    }
}
