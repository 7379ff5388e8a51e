//! Deterministic, seed-driven fault injection and recovery accounting.
//!
//! The paper's accelerator keeps answering queries while nodes split,
//! shortcut entries go stale, and the Tree buffer churns; real silicon
//! additionally sees transient HBM read errors and queue overflow. This
//! module provides the shared machinery for *modeling* those events
//! reproducibly:
//!
//! * [`FaultPlan`] — a `Copy`, serializable description of which faults to
//!   inject and at what rate, carried inside the accelerator config;
//! * [`FaultInjector`] — a counter-based PRNG that answers "does fault X
//!   fire at this site?" deterministically, independent of wall-clock time
//!   and of interleaving between unrelated fault sites;
//! * [`RetryPolicy`] — bounded retry-with-exponential-backoff accounting for
//!   transient memory errors;
//! * [`DegradationController`] — a windowed error-rate tracker that trips a
//!   sticky "component disabled" latch when the observed rate crosses a
//!   configurable threshold (graceful degradation, never wrong answers);
//! * [`RecoveryStats`] — counters for every injected fault and every
//!   recovery action, surfaced in reports and the chaos experiment.
//!
//! Faults injected through this module may only perturb *timing* and *which
//! path* an operation takes (shortcut hit vs. root traversal, buffer hit
//! vs. refetch); they must never change a query's answer. The `chaos`
//! experiment in `crates/bench` enforces this differentially by comparing
//! answer digests against a fault-free run.

use serde::{Deserialize, Serialize};

/// Distinct fault sites. Each site draws from its own deterministic stream,
/// so adding draws at one site never perturbs decisions at another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// Transient error on an off-chip (HBM) read.
    HbmRead,
    /// Corruption / forced staleness of a shortcut-table entry.
    ShortcutEntry,
    /// An eviction storm wiping the value-aware Tree buffer.
    TreeBufferStorm,
    /// A bubble injected into an SOU pipeline stage.
    PipelineStall,
    /// PCU scan-buffer / dispatch-queue overflow causing backpressure.
    QueueOverflow,
    /// A whole SOU dropping out for one batch (dispatcher must remap).
    SouOutage,
}

impl FaultSite {
    /// Number of sites (one draw counter each); `SouOutage` is the last.
    const COUNT: usize = FaultSite::SouOutage as usize + 1;

    /// Per-site salt folded into the hash so sites with equal counters
    /// still draw unrelated values.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; only their distinctness matters. A
        // site's constant never changes, so seeded decisions stay
        // reproducible when other sites come or go.
        match self {
            FaultSite::HbmRead => 0x9e37_79b9_7f4a_7c15,
            FaultSite::ShortcutEntry => 0x94d0_49bb_1331_11eb,
            FaultSite::TreeBufferStorm => 0xd6e8_feb8_6659_fd93,
            FaultSite::PipelineStall => 0xa076_1d64_78bd_642f,
            FaultSite::QueueOverflow => 0xe703_7ed1_a0b4_28db,
            FaultSite::SouOutage => 0x8ebc_6af0_9c88_c6e3,
        }
    }
}

/// Which faults to inject, and how hard. All rates are probabilities in
/// `[0, 1]` applied per *opportunity* (per off-chip read, per probe, per
/// batch — see each field). The default plan injects nothing.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the deterministic fault streams. Two runs with the same
    /// plan and workload make identical injection decisions.
    pub seed: u64,
    /// Probability that an off-chip read suffers a transient error
    /// (ECC-uncorrectable burst, CRC retry on the HBM PHY). Applied per
    /// off-chip fetch.
    pub hbm_transient_rate: f64,
    /// Probability that a shortcut-table probe finds its entry corrupted
    /// (bit flip in the on-chip SRAM, or forced staleness). Applied per
    /// probe of an existing entry.
    pub shortcut_corrupt_rate: f64,
    /// Probability of an eviction storm (the whole Tree buffer invalidated,
    /// e.g. a conflict burst) at a batch boundary.
    pub evict_storm_rate: f64,
    /// Probability that an SOU operation hits an injected pipeline bubble.
    pub pipeline_stall_rate: f64,
    /// Length of one injected pipeline bubble, cycles.
    pub pipeline_stall_cycles: u64,
    /// Probability that a whole SOU is out for a batch (dispatcher remaps
    /// its buckets onto the surviving SOUs). Applied per batch.
    pub sou_outage_rate: f64,
    /// Probability that the PCU scan buffer overflows on a batch, forcing
    /// the overflowed tail to be re-streamed (backpressure). Per batch.
    pub queue_overflow_rate: f64,
    /// Bounded-retry policy for transient memory errors.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero). This is the default
    /// carried by `DcartConfig`, so fault-free runs stay bit-identical to
    /// the pre-fault-injection model.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            hbm_transient_rate: 0.0,
            shortcut_corrupt_rate: 0.0,
            evict_storm_rate: 0.0,
            pipeline_stall_rate: 0.0,
            pipeline_stall_cycles: 0,
            sou_outage_rate: 0.0,
            queue_overflow_rate: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// `true` if any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.hbm_transient_rate > 0.0
            || self.shortcut_corrupt_rate > 0.0
            || self.evict_storm_rate > 0.0
            || self.pipeline_stall_rate > 0.0
            || self.sou_outage_rate > 0.0
            || self.queue_overflow_rate > 0.0
    }
}

/// Bounded retry-with-exponential-backoff for transient memory errors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum number of retries before failing over (re-issuing on an
    /// alternate channel at double cost).
    pub max_retries: u32,
    /// Backoff doubles each retry, capped at `base × 2^backoff_cap`.
    pub backoff_cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff_cap: 3 }
    }
}

impl RetryPolicy {
    /// Cost of the `attempt`-th retry (1-based) in units of the base access
    /// latency: `base << min(attempt - 1, backoff_cap)`.
    pub fn backoff_cost(&self, attempt: u32, base: u64) -> u64 {
        let shift = attempt.saturating_sub(1).min(self.backoff_cap);
        base << shift
    }
}

/// Outcome of driving a transient-error retry loop to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryOutcome {
    /// The access succeeded after `retries` retries (0 = first try clean).
    Recovered {
        /// Number of retries consumed (0 when no error was injected).
        retries: u32,
    },
    /// All retries failed; the request was re-issued on an alternate
    /// channel (failover). Still succeeds — correctness is preserved —
    /// but at double the base cost.
    FailedOver,
}

/// Deterministic per-site fault decisions.
///
/// Each site keeps an independent draw counter; the decision for draw `n`
/// at site `s` is a pure function of `(seed, s, n)` (a splitmix64-style
/// hash), so decisions are reproducible regardless of how draws from
/// different sites interleave.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    seed: u64,
    counters: [u64; FaultSite::COUNT],
}

impl FaultInjector {
    /// Creates an injector for the given seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed, counters: [0; FaultSite::COUNT] }
    }

    /// Creates an injector for a plan (uses the plan's seed).
    pub fn for_plan(plan: &FaultPlan) -> Self {
        FaultInjector::new(plan.seed)
    }

    fn draw(&mut self, site: FaultSite) -> u64 {
        let n = self.counters[site as usize];
        self.counters[site as usize] = n + 1;
        splitmix64(self.seed ^ site.salt() ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }

    /// Returns `true` with probability `rate` (deterministically, from the
    /// site's stream). A rate of 0 never fires and consumes no draw.
    pub fn fire(&mut self, site: FaultSite, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            self.counters[site as usize] += 1;
            return true;
        }
        unit_f64(self.draw(site)) < rate
    }

    /// A deterministic value in `0..bound` from the site's stream (for
    /// picking a victim channel / SOU). `bound` must be nonzero.
    pub fn pick(&mut self, site: FaultSite, bound: u64) -> u64 {
        assert!(bound > 0, "pick() needs a nonzero bound");
        self.draw(site) % bound
    }

    /// Drives the bounded-retry loop for one transiently-failing access:
    /// the initial error already happened; each retry independently fails
    /// with the same `rate`. Returns the outcome and adds the backoff cost
    /// of each failed retry (in units of `base_cost`) to `*extra_cost`.
    pub fn retry_transient(
        &mut self,
        site: FaultSite,
        rate: f64,
        policy: &RetryPolicy,
        base_cost: u64,
        extra_cost: &mut u64,
    ) -> RetryOutcome {
        for attempt in 1..=policy.max_retries {
            *extra_cost += policy.backoff_cost(attempt, base_cost);
            if !self.fire(site, rate) {
                return RetryOutcome::Recovered { retries: attempt };
            }
        }
        // Failover: re-issue on an alternate channel at double base cost.
        *extra_cost += base_cost * 2;
        RetryOutcome::FailedOver
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Windowed error-rate tracker driving graceful degradation.
///
/// Events are recorded as error / no-error; once a full window has been
/// observed, an error rate at or above the threshold trips a *sticky*
/// disable latch. The component (shortcut table, Tree buffer) then runs
/// disabled for the rest of the run — slower, never wrong.
#[derive(Clone, Debug)]
pub struct DegradationController {
    threshold: f64,
    window: u32,
    events: u32,
    errors: u32,
    disabled: bool,
    trips: u64,
}

impl DegradationController {
    /// Creates a controller that disables its component when the error rate
    /// over a sliding window of `window` events reaches `threshold`.
    /// A `threshold` of 0 or a `window` of 0 disables the controller
    /// (never trips).
    pub fn new(threshold: f64, window: u32) -> Self {
        DegradationController { threshold, window, events: 0, errors: 0, disabled: false, trips: 0 }
    }

    /// Records one event; `error` marks it as a failure (stale entry,
    /// transient fault). Returns `true` exactly when this event trips the
    /// latch (rate over the completed window ≥ threshold).
    pub fn record(&mut self, error: bool) -> bool {
        if self.disabled || self.threshold <= 0.0 || self.window == 0 {
            return false;
        }
        self.events += 1;
        if error {
            self.errors += 1;
        }
        if self.events < self.window {
            return false;
        }
        let rate = f64::from(self.errors) / f64::from(self.events);
        if rate >= self.threshold {
            self.disabled = true;
            self.trips += 1;
            return true;
        }
        // Window complete without tripping: start a fresh window.
        self.events = 0;
        self.errors = 0;
        false
    }

    /// `true` once the latch has tripped.
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Number of times the latch tripped (0 or 1: the latch is sticky).
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Where the durability layer can be killed mid-flight. Each site models a
/// distinct torn state a real process crash (or power cut) leaves on disk;
/// the crash-point matrix in `crates/bench` iterates every site at several
/// offsets and asserts digest-identical recovery for each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashSite {
    /// Die while a WAL record's bytes are being appended: only a
    /// deterministic prefix of the record reaches the file (torn tail).
    MidRecord,
    /// Die after a batch's ops record is fully on disk but before its
    /// commit mark is appended: the batch must NOT be replayed.
    BeforeCommit,
    /// Die while the checkpoint temp file is being written: only a prefix
    /// of the snapshot reaches `checkpoint.tmp`.
    MidCheckpoint,
    /// Die after the checkpoint temp file is complete and synced but
    /// before the atomic rename: the previous checkpoint stays live.
    BeforeSwap,
    /// Die after the rename but before the WAL is reset: the new
    /// checkpoint is live and the WAL still holds already-absorbed
    /// batches, which recovery must skip.
    AfterSwap,
}

impl CrashSite {
    /// Every crash site, in matrix order.
    pub const ALL: [CrashSite; 5] = [
        CrashSite::MidRecord,
        CrashSite::BeforeCommit,
        CrashSite::MidCheckpoint,
        CrashSite::BeforeSwap,
        CrashSite::AfterSwap,
    ];

    /// Stable lowercase name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            CrashSite::MidRecord => "mid-record",
            CrashSite::BeforeCommit => "before-commit",
            CrashSite::MidCheckpoint => "mid-checkpoint",
            CrashSite::BeforeSwap => "before-swap",
            CrashSite::AfterSwap => "after-swap",
        }
    }

    /// Stable position in [`CrashSite::ALL`] (report ordering, seed
    /// derivation).
    pub fn index(self) -> usize {
        match self {
            CrashSite::MidRecord => 0,
            CrashSite::BeforeCommit => 1,
            CrashSite::MidCheckpoint => 2,
            CrashSite::BeforeSwap => 3,
            CrashSite::AfterSwap => 4,
        }
    }
}

/// A deterministic "kill the process here" instruction: die at the
/// `at`-th opportunity (0-based) of `site`. The `seed` additionally picks
/// *how much* of a torn write lands on disk for the partial-write sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// The durability-layer site to kill.
    pub site: CrashSite,
    /// 0-based opportunity index at which the crash fires.
    pub at: u64,
    /// Seed for the torn-write length draw.
    pub seed: u64,
}

/// Counts opportunities per [`CrashSite`] and fires the planned crash
/// exactly once. Without a plan it still counts, so a clean run can be
/// used to enumerate the crash-point matrix ("how many opportunities does
/// each site have on this workload?").
#[derive(Clone, Debug)]
pub struct CrashInjector {
    plan: Option<CrashPlan>,
    counters: [u64; CrashSite::ALL.len()],
    fired: bool,
}

impl CrashInjector {
    /// An injector that never crashes but still counts opportunities.
    pub fn counting() -> Self {
        CrashInjector { plan: None, counters: [0; CrashSite::ALL.len()], fired: false }
    }

    /// An injector that fires `plan` once, at its site's `at`-th
    /// opportunity.
    pub fn for_plan(plan: CrashPlan) -> Self {
        CrashInjector { plan: Some(plan), counters: [0; CrashSite::ALL.len()], fired: false }
    }

    /// Records one opportunity at `site`; returns `true` exactly when the
    /// planned crash fires here (at most once per injector).
    pub fn should_crash(&mut self, site: CrashSite) -> bool {
        let n = self.counters[site.index()];
        self.counters[site.index()] = n + 1;
        match self.plan {
            Some(p) if !self.fired && p.site == site && p.at == n => {
                self.fired = true;
                true
            }
            _ => false,
        }
    }

    /// Opportunities seen so far at `site`.
    pub fn opportunities(&self, site: CrashSite) -> u64 {
        self.counters[site.index()]
    }

    /// `true` once the planned crash has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// How many bytes of a torn `total`-byte write reach the disk: a
    /// deterministic draw in `[0, total)` from the plan seed, so
    /// "mid-record" and "mid-checkpoint" cells tear at reproducible but
    /// varied offsets (header-only, mid-payload, all-but-checksum, ...).
    pub fn torn_len(&self, total: usize) -> usize {
        if total == 0 {
            return 0;
        }
        let seed = self.plan.map_or(0, |p| p.seed ^ (p.at << 8) ^ p.site.index() as u64);
        (splitmix64(seed ^ total as u64) % total as u64) as usize
    }
}

/// Counters for injected faults and the recovery actions they triggered.
/// Zero everywhere on a fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Transient HBM read errors injected.
    pub hbm_transient_errors: u64,
    /// Retries issued for transient errors.
    pub hbm_retries: u64,
    /// Extra cycles spent in retry/backoff.
    pub hbm_retry_cycles: u64,
    /// Accesses that exhausted retries and failed over to an alternate
    /// channel (correctness preserved, 2× base cost).
    pub hbm_failovers: u64,
    /// Shortcut entries corrupted / forced stale by injection.
    pub shortcut_corruptions: u64,
    /// Probes that detected a poisoned entry and fell back to a full
    /// root-to-leaf traversal (validate-then-fallback recovery).
    pub shortcut_fallbacks: u64,
    /// Tree-buffer eviction storms injected.
    pub evict_storms: u64,
    /// Buffer entries dropped by storms.
    pub storm_evictions: u64,
    /// SOU pipeline bubbles injected.
    pub pipeline_stalls: u64,
    /// Cycles lost to injected pipeline bubbles.
    pub pipeline_stall_cycles: u64,
    /// Whole-SOU outages injected (dispatcher remapped the batch).
    pub sou_outages: u64,
    /// PCU scan-buffer overflows injected.
    pub queue_overflows: u64,
    /// Cycles of backpressure charged for overflow re-streaming.
    pub backpressure_cycles: u64,
    /// Times the degradation controller disabled the shortcut table.
    pub shortcut_disables: u64,
    /// Times the degradation controller disabled the Tree buffer.
    pub tree_buffer_disables: u64,
}

impl RecoveryStats {
    /// Sums every injected-fault counter (not the recovery actions).
    pub fn total_injected(&self) -> u64 {
        self.hbm_transient_errors
            + self.shortcut_corruptions
            + self.evict_storms
            + self.pipeline_stalls
            + self.sou_outages
            + self.queue_overflows
    }

    /// Sums every recovery-action counter.
    pub fn total_recoveries(&self) -> u64 {
        self.hbm_retries
            + self.hbm_failovers
            + self.shortcut_fallbacks
            + self.shortcut_disables
            + self.tree_buffer_disables
    }

    /// Folds another stats block into this one (for merging per-component
    /// counters into a run-level report).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.hbm_transient_errors += other.hbm_transient_errors;
        self.hbm_retries += other.hbm_retries;
        self.hbm_retry_cycles += other.hbm_retry_cycles;
        self.hbm_failovers += other.hbm_failovers;
        self.shortcut_corruptions += other.shortcut_corruptions;
        self.shortcut_fallbacks += other.shortcut_fallbacks;
        self.evict_storms += other.evict_storms;
        self.storm_evictions += other.storm_evictions;
        self.pipeline_stalls += other.pipeline_stalls;
        self.pipeline_stall_cycles += other.pipeline_stall_cycles;
        self.sou_outages += other.sou_outages;
        self.queue_overflows += other.queue_overflows;
        self.backpressure_cycles += other.backpressure_cycles;
        self.shortcut_disables += other.shortcut_disables;
        self.tree_buffer_disables += other.tree_buffer_disables;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let mut inj = FaultInjector::new(42);
        for _ in 0..10_000 {
            assert!(!inj.fire(FaultSite::HbmRead, 0.0));
        }
    }

    #[test]
    fn unit_rate_always_fires() {
        let mut inj = FaultInjector::new(42);
        for _ in 0..100 {
            assert!(inj.fire(FaultSite::HbmRead, 1.0));
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        let seq_a: Vec<bool> = (0..1000).map(|_| a.fire(FaultSite::ShortcutEntry, 0.3)).collect();
        let seq_b: Vec<bool> = (0..1000).map(|_| b.fire(FaultSite::ShortcutEntry, 0.3)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn sites_are_independent_streams() {
        // Interleaving draws at another site must not change this site's
        // decisions.
        let mut solo = FaultInjector::new(99);
        let solo_seq: Vec<bool> = (0..500).map(|_| solo.fire(FaultSite::HbmRead, 0.5)).collect();
        let mut mixed = FaultInjector::new(99);
        let mixed_seq: Vec<bool> = (0..500)
            .map(|_| {
                mixed.fire(FaultSite::PipelineStall, 0.5);
                mixed.fire(FaultSite::QueueOverflow, 0.5);
                mixed.fire(FaultSite::HbmRead, 0.5)
            })
            .collect();
        assert_eq!(solo_seq, mixed_seq);
    }

    #[test]
    fn empirical_rate_tracks_requested_rate() {
        let mut inj = FaultInjector::new(1);
        let n = 100_000;
        let hits = (0..n).filter(|_| inj.fire(FaultSite::HbmRead, 0.1)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "empirical rate {rate}");
    }

    #[test]
    fn pick_is_bounded_and_deterministic() {
        let mut a = FaultInjector::new(3);
        let mut b = FaultInjector::new(3);
        for _ in 0..100 {
            let va = a.pick(FaultSite::SouOutage, 16);
            let vb = b.pick(FaultSite::SouOutage, 16);
            assert_eq!(va, vb);
            assert!(va < 16);
        }
    }

    #[test]
    fn retry_recovers_or_fails_over_with_bounded_cost() {
        let policy = RetryPolicy { max_retries: 3, backoff_cap: 2 };
        let mut inj = FaultInjector::new(5);
        let mut recovered = 0u32;
        let mut failed_over = 0u32;
        for _ in 0..1000 {
            let mut cost = 0;
            match inj.retry_transient(FaultSite::HbmRead, 0.5, &policy, 100, &mut cost) {
                RetryOutcome::Recovered { retries } => {
                    assert!((1..=3).contains(&retries));
                    recovered += 1;
                }
                RetryOutcome::FailedOver => failed_over += 1,
            }
            // Worst case: 100 + 200 + 400 (backoff, capped) + 200 (failover).
            assert!(cost <= 900, "cost {cost}");
            assert!(cost >= 100);
        }
        assert!(recovered > 0, "some retries should succeed at rate 0.5");
        assert!(failed_over > 0, "some should exhaust 3 retries at rate 0.5");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy { max_retries: 10, backoff_cap: 3 };
        assert_eq!(p.backoff_cost(1, 10), 10);
        assert_eq!(p.backoff_cost(2, 10), 20);
        assert_eq!(p.backoff_cost(3, 10), 40);
        assert_eq!(p.backoff_cost(4, 10), 80);
        assert_eq!(p.backoff_cost(9, 10), 80, "capped at base << 3");
    }

    #[test]
    fn degradation_trips_on_high_error_rate_and_is_sticky() {
        let mut c = DegradationController::new(0.5, 10);
        let mut tripped_at = None;
        for i in 0..100 {
            if c.record(true) {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(9), "trips when the first window completes");
        assert!(c.is_disabled());
        assert_eq!(c.trips(), 1);
        assert!(!c.record(true), "sticky: no further trips");
        assert_eq!(c.trips(), 1);
    }

    #[test]
    fn degradation_ignores_low_error_rate() {
        let mut c = DegradationController::new(0.5, 10);
        for i in 0..10_000 {
            // 10% error rate, well under the 50% threshold.
            assert!(!c.record(i % 10 == 0));
        }
        assert!(!c.is_disabled());
    }

    #[test]
    fn degradation_disabled_when_threshold_zero() {
        let mut c = DegradationController::new(0.0, 10);
        for _ in 0..1000 {
            assert!(!c.record(true));
        }
        assert!(!c.is_disabled());
    }

    #[test]
    fn recovery_stats_merge_adds_counters() {
        let mut a = RecoveryStats { hbm_retries: 2, shortcut_fallbacks: 1, ..Default::default() };
        let b = RecoveryStats { hbm_retries: 3, evict_storms: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.hbm_retries, 5);
        assert_eq!(a.shortcut_fallbacks, 1);
        assert_eq!(a.evict_storms, 4);
        assert_eq!(a.total_injected(), 4);
        assert_eq!(a.total_recoveries(), 6);
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        assert_eq!(p, FaultPlan::none());
    }

    #[test]
    fn crash_injector_fires_exactly_once_at_the_planned_opportunity() {
        let plan = CrashPlan { site: CrashSite::MidRecord, at: 3, seed: 1 };
        let mut inj = CrashInjector::for_plan(plan);
        let fires: Vec<bool> = (0..8).map(|_| inj.should_crash(CrashSite::MidRecord)).collect();
        assert_eq!(fires, [false, false, false, true, false, false, false, false]);
        assert!(inj.fired());
        assert_eq!(inj.opportunities(CrashSite::MidRecord), 8);
    }

    #[test]
    fn crash_sites_count_independently() {
        let plan = CrashPlan { site: CrashSite::BeforeSwap, at: 0, seed: 9 };
        let mut inj = CrashInjector::for_plan(plan);
        assert!(!inj.should_crash(CrashSite::MidRecord));
        assert!(!inj.should_crash(CrashSite::MidCheckpoint));
        assert!(inj.should_crash(CrashSite::BeforeSwap));
        assert_eq!(inj.opportunities(CrashSite::MidRecord), 1);
        assert_eq!(inj.opportunities(CrashSite::BeforeSwap), 1);
    }

    #[test]
    fn counting_injector_never_fires() {
        let mut inj = CrashInjector::counting();
        for _ in 0..100 {
            for site in CrashSite::ALL {
                assert!(!inj.should_crash(site));
            }
        }
        assert!(!inj.fired());
        assert_eq!(inj.opportunities(CrashSite::AfterSwap), 100);
    }

    #[test]
    fn torn_len_is_deterministic_and_bounded() {
        let inj = CrashInjector::for_plan(CrashPlan { site: CrashSite::MidRecord, at: 2, seed: 7 });
        for total in [1usize, 8, 64, 4096] {
            let a = inj.torn_len(total);
            let b = inj.torn_len(total);
            assert_eq!(a, b);
            assert!(a < total, "torn write must be a strict prefix: {a} of {total}");
        }
        assert_eq!(inj.torn_len(0), 0);
    }
}
