//! DCART: the cycle-level accelerator model (paper §III, Figs. 4–6).
//!
//! The model executes the CTT functional stream and charges hardware
//! timing:
//!
//! * the **PCU** combines one operation per cycle through its 3-stage
//!   pipeline (Scan_Operation → Get_Prefix → Combine_Operation);
//! * the **Dispatcher** hands each bucket table to its SOU;
//! * each **SOU** runs its bucket through the 4-stage pipeline
//!   (Index_Shortcut → Traverse_Tree → Trigger_Operation →
//!   Generate_Shortcut), with stage latencies determined by where the data
//!   lives: on-chip buffer hits cost pipeline cycles, misses cost HBM
//!   round-trips;
//! * the **Tree buffer** uses value-aware replacement with node values set
//!   to the per-batch bucket operation counts (§III-E), the Shortcut
//!   buffer uses LRU;
//! * PCU combining of batch *i+1* **overlaps** SOU operating of batch *i*
//!   (§III-D, Fig. 6).

use dcart_baselines::{
    ContentionWindow, Counters, IndexEngine, RedundancyWindow, RunConfig, RunReport, TimeBreakdown,
};
use dcart_engine::{
    Clock, DegradationController, FaultInjector, FaultPlan, FaultSite, LatencyRecorder,
    RecoveryStats, RetryOutcome,
};
use dcart_mem::{BufferOutcome, BufferPolicy, EnergyModel, MemoryConfig, ObjectBuffer};
use dcart_workloads::{KeySet, Op, OpKind};

use crate::config::DcartConfig;
use crate::ctt::{
    execute_ctt, tree_digest, BatchEvent, CttConsumer, CttOpEvent, ExecOpts, LockGroup,
};
use crate::dispatcher::Dispatch;
use crate::pcu::{scan_capacity_ops, OP_STREAM_BYTES};

/// Per-batch timing record of the accelerator.
#[derive(Clone, Copy, Debug)]
pub struct BatchTiming {
    /// PCU combining cycles for this batch.
    pub pcu_cycles: u64,
    /// SOU operating cycles (max over the 16 SOUs) for this batch.
    pub sou_cycles: u64,
    /// Operations in the batch.
    pub ops: u64,
}

/// Utilization and traffic details of an accelerator run, beyond the
/// common [`RunReport`].
#[derive(Clone, Debug, Default)]
pub struct AccelDetails {
    /// Per-batch timings.
    pub batches: Vec<BatchTiming>,
    /// Average SOU load imbalance: max bucket size / mean bucket size.
    pub bucket_imbalance: f64,
    /// Tree-buffer hit ratio.
    pub tree_buffer_hit_ratio: f64,
    /// Shortcut-buffer hit ratio.
    pub shortcut_buffer_hit_ratio: f64,
    /// Total cycles including overlap.
    pub total_cycles: u64,
    /// Node loads the Traverse stage performed: one per path node per
    /// traversing op, so equal to
    /// [`traverse_ops_advanced`](Self::traverse_ops_advanced).
    pub traverse_nodes_visited: u64,
    /// Op-level traversal advancement steps (sum of path lengths).
    pub traverse_ops_advanced: u64,
    /// Order-sensitive digest of every operation's answer. Two runs over
    /// the same workload must produce equal digests regardless of any
    /// injected faults — the chaos experiment enforces this.
    pub answer_digest: u64,
    /// Digest of the final tree contents (key ids and values in key order).
    pub tree_digest: u64,
    /// Injected-fault and recovery counters (all zero on a fault-free run).
    pub recovery: RecoveryStats,
}

/// The DCART accelerator engine.
#[derive(Debug)]
pub struct DcartAccel {
    config: DcartConfig,
    exec: ExecOpts,
    hbm: MemoryConfig,
    details: AccelDetails,
}

impl DcartAccel {
    /// Creates the accelerator model over a configuration.
    pub fn new(config: DcartConfig) -> Self {
        DcartAccel {
            config,
            exec: ExecOpts::default(),
            hbm: MemoryConfig::hbm_u280(),
            details: AccelDetails::default(),
        }
    }

    /// Overrides how the host executes the functional CTT run (default
    /// [`ExecOpts::default`]); the simulated results never depend on it.
    pub fn with_exec(mut self, exec: ExecOpts) -> Self {
        self.exec = exec;
        self
    }

    /// Details of the most recent run.
    pub fn last_details(&self) -> &AccelDetails {
        &self.details
    }
}

/// Outstanding memory requests each SOU sustains (non-blocking MSHRs):
/// misses of different in-flight operations overlap up to this depth, so a
/// long HBM latency costs issue occupancy, not a full stall. 16 SOUs × 16
/// requests = 8 in flight per HBM pseudo-channel — a typical operating
/// point for U280 designs.
const SOU_OUTSTANDING: u64 = 16;

/// Pipeline fill/drain cycles of one SOU per batch.
const SOU_FILL_CYCLES: u64 = 16;

struct AccelConsumer {
    cfg: DcartConfig,
    clock: Clock,
    hbm_latency_cycles: u64,
    tree_buffer: ObjectBuffer,
    shortcut_buffer: ObjectBuffer,
    /// Per-SOU issue-occupancy cycles in the current batch.
    sou_occupancy: Vec<u64>,
    /// Per-SOU summed request latency in the current batch.
    sou_latency: Vec<u64>,
    counters: Counters,
    redundancy: RedundancyWindow,
    contention: ContentionWindow,
    batches: Vec<BatchTiming>,
    current_batch_ops: u64,
    imbalance_sum: f64,
    onchip_accesses: u64,
    /// Fault-injection plan (inert by default) and its deterministic
    /// decision streams.
    plan: FaultPlan,
    injector: FaultInjector,
    recovery: RecoveryStats,
    /// Trips when the off-chip transient-error rate crosses the configured
    /// threshold; the Tree buffer is then bypassed (every fetch re-reads
    /// HBM — slower, but no stale on-chip state to trust).
    buffer_degrade: DegradationController,
    tree_buffer_active: bool,
    /// Bucket → SOU routing for the current batch; recomputed around
    /// injected SOU outages.
    dispatch: Dispatch,
    /// `true` while `dispatch` excludes a downed SOU.
    dispatch_degraded: bool,
    /// Operations the Scan buffer parks on chip while an injected
    /// response-queue overflow stalls combining; the rest of the batch is
    /// re-streamed from host memory.
    scan_capacity: u64,
}

impl AccelConsumer {
    /// Charges an injected transient error on one off-chip fetch: bounded
    /// retry with exponential backoff, failing over to an alternate channel
    /// when retries are exhausted. Returns the extra cycles spent.
    fn hbm_transient(&mut self) -> u64 {
        let mut extra = 0u64;
        self.recovery.hbm_transient_errors += 1;
        match self.injector.retry_transient(
            FaultSite::HbmRead,
            self.plan.hbm_transient_rate,
            &self.plan.retry,
            self.hbm_latency_cycles,
            &mut extra,
        ) {
            RetryOutcome::Recovered { retries } => self.recovery.hbm_retries += u64::from(retries),
            RetryOutcome::FailedOver => self.recovery.hbm_failovers += 1,
        }
        self.recovery.hbm_retry_cycles += extra;
        extra
    }

    /// Fetches a node through the Tree buffer, returning the cycles the
    /// Traverse_Tree stage spends on it.
    fn fetch_node(&mut self, id: u64, footprint: u32, lines: u32, value: u64) -> u64 {
        let outcome = if self.tree_buffer_active {
            self.tree_buffer.request(id, footprint, value)
        } else {
            BufferOutcome::MissBypassed
        };
        match outcome {
            BufferOutcome::Hit => {
                self.counters.cache_hits += 1;
                self.onchip_accesses += 1;
                2
            }
            BufferOutcome::MissFilled | BufferOutcome::MissBypassed => {
                self.counters.cache_misses += 1;
                self.counters.offchip_accesses += 1;
                self.counters.offchip_bytes += u64::from(lines) * 64;
                let mut cycles = self.hbm_latency_cycles + u64::from(lines.saturating_sub(1));
                if self.plan.is_active() {
                    let errored =
                        self.injector.fire(FaultSite::HbmRead, self.plan.hbm_transient_rate);
                    if errored {
                        cycles += self.hbm_transient();
                    }
                    if self.buffer_degrade.record(errored) {
                        self.tree_buffer_active = false;
                        self.recovery.tree_buffer_disables += 1;
                    }
                }
                cycles
            }
        }
    }
}

impl CttConsumer for AccelConsumer {
    fn batch_start(&mut self, ev: &BatchEvent<'_>) {
        // Reuse the per-SOU accumulators across batches instead of
        // reallocating two `Vec`s per batch.
        self.sou_occupancy.resize(self.cfg.sous, 0);
        self.sou_occupancy.iter_mut().for_each(|c| *c = 0);
        self.sou_latency.resize(self.cfg.sous, 0);
        self.sou_latency.iter_mut().for_each(|c| *c = 0);
        self.current_batch_ops = 0;
        let total: u32 = ev.bucket_sizes.iter().sum();
        let max = ev.bucket_sizes.iter().copied().max().unwrap_or(0);
        if total > 0 {
            let mean = f64::from(total) / ev.bucket_sizes.len() as f64;
            self.imbalance_sum += f64::from(max) / mean.max(1e-9);
        }
        if self.plan.is_active() {
            if self.injector.fire(FaultSite::TreeBufferStorm, self.plan.evict_storm_rate) {
                self.recovery.evict_storms += 1;
                self.recovery.storm_evictions += self.tree_buffer.storm();
            }
            let buckets = ev.bucket_sizes.len().max(1);
            if self.injector.fire(FaultSite::SouOutage, self.plan.sou_outage_rate) {
                let down = self.injector.pick(FaultSite::SouOutage, self.cfg.sous as u64) as usize;
                self.recovery.sou_outages += 1;
                self.dispatch = Dispatch::new_excluding(buckets, self.cfg.sous, &[down]);
                self.dispatch_degraded = true;
            } else if self.dispatch_degraded || self.dispatch.sou_of.len() != buckets {
                self.dispatch = Dispatch::new(buckets, self.cfg.sous);
                self.dispatch_degraded = false;
            }
        }
    }

    fn op(&mut self, ev: &CttOpEvent<'_>) {
        self.counters.ops += 1;
        self.current_batch_ops += 1;
        if ev.kind.is_write() {
            self.counters.writes += 1;
        } else {
            self.counters.reads += 1;
        }
        let value = u64::from(ev.bucket_ops);

        // Stage 1 — Index_Shortcut: probe the shortcut buffer for
        // reads/updates; other ops pass through in a cycle.
        let s1 = if self.cfg.shortcuts_enabled && matches!(ev.kind, OpKind::Read | OpKind::Update) {
            if ev.shortcut_hit {
                // The buffer caches shortcut entries by key identity; a
                // probe that misses on chip fetches the entry from the
                // off-chip hash table.
                match self.shortcut_buffer.request(ev.key_id, crate::shortcut::ENTRY_BYTES, value) {
                    BufferOutcome::Hit => {
                        self.onchip_accesses += 1;
                        1
                    }
                    _ => {
                        self.counters.offchip_accesses += 1;
                        self.counters.offchip_bytes += 64;
                        let mut cycles = self.hbm_latency_cycles;
                        if self.plan.is_active()
                            && self.injector.fire(FaultSite::HbmRead, self.plan.hbm_transient_rate)
                        {
                            cycles += self.hbm_transient();
                        }
                        cycles
                    }
                }
            } else {
                // Negative probe: an on-chip presence filter over Key_IDs
                // rejects keys with no shortcut entry without an off-chip
                // access, so absent-key probes cost pipeline cycles only.
                self.onchip_accesses += 1;
                2
            }
        } else {
            1
        };

        // Stage 2 — Traverse_Tree: every effective visit goes through the
        // value-aware Tree buffer.
        let mut s2 = 0u64;
        for v in ev.visits {
            self.counters.nodes_traversed += 1;
            self.counters.useful_bytes += u64::from(v.useful_bytes);
            self.counters.fetched_bytes += u64::from(v.lines) * 64;
            s2 += self.fetch_node(u64::from(v.node.index()), v.footprint, v.lines, value);
        }
        self.redundancy.record_op(ev.visits.iter().map(|v| v.node));
        if ev.shortcut_hit {
            self.counters.shortcut_hits += 1;
        } else {
            self.counters.shortcut_misses += 1;
        }
        self.counters.partial_key_matches += ev.matches;

        // Stage 3 — Trigger_Operation; Stage 4 — Generate_Shortcut.
        let s3 = 2;
        let s4 = if ev.generated_shortcut { 2 } else { 1 };

        // Non-blocking SOU: each node fetch occupies an issue slot for a
        // cycle (plus the pipeline's own work), while full fetch latency is
        // overlapped across up to SOU_OUTSTANDING in-flight operations.
        let sou = if self.dispatch.sou_of.is_empty() {
            ev.bucket % self.cfg.sous
        } else {
            self.dispatch.sou_of[ev.bucket % self.dispatch.sou_of.len()]
        };
        let mut occupancy = (ev.visits.len() as u64).max(1);
        let mut latency = s1 + s2.max(1) + s3 + s4;
        if self.plan.is_active()
            && self.injector.fire(FaultSite::PipelineStall, self.plan.pipeline_stall_rate)
        {
            // A bubble holds the issue stage, so it costs occupancy (the
            // serial resource), not just overlappable latency.
            self.recovery.pipeline_stalls += 1;
            self.recovery.pipeline_stall_cycles += self.plan.pipeline_stall_cycles;
            occupancy += self.plan.pipeline_stall_cycles;
            latency += self.plan.pipeline_stall_cycles;
        }
        self.sou_occupancy[sou] += occupancy;
        self.sou_latency[sou] += latency;
        self.onchip_accesses += 2; // scan + bucket buffer streams
    }

    fn lock_group(&mut self, group: &LockGroup) {
        self.counters.lock_acquisitions += 1;
        self.contention.record_unit([group.node]);
    }

    fn batch_end(&mut self, _index: usize) {
        self.contention.end_window();
        let sou_cycles = self
            .sou_occupancy
            .iter()
            .zip(&self.sou_latency)
            .map(|(&occ, &lat)| occ.max(lat / SOU_OUTSTANDING) + SOU_FILL_CYCLES)
            .max()
            .unwrap_or(0);
        // PCU: one op per cycle through 3 stages, floored by the byte
        // stream the Scan/Bucket buffers move per cycle.
        let clock_hz = self.clock.freq_hz();
        let bytes_per_cycle = 460.0e9 / clock_hz; // HBM bytes per cycle
        let stream_cycles = (self.current_batch_ops * OP_STREAM_BYTES) as f64 / bytes_per_cycle;
        // Multiple PCUs scan the arriving batch in parallel stripes (an
        // extension knob; Table I uses 1).
        let pcu_throughput = self.cfg.pcus.max(1) as u64;
        let mut pcu_cycles =
            (self.current_batch_ops / pcu_throughput + 2).max(stream_cycles.ceil() as u64);
        self.counters.offchip_bytes += self.current_batch_ops * OP_STREAM_BYTES;
        if self.plan.is_active()
            && self.injector.fire(FaultSite::QueueOverflow, self.plan.queue_overflow_rate)
        {
            // The response queue toward the host jams: the Scan buffer
            // parks what it can hold, the rest of the batch is re-streamed
            // from host memory, and every op of the batch costs one stall
            // cycle (parked or re-streamed) before the next batch combines.
            let rejected = self.current_batch_ops.saturating_sub(self.scan_capacity);
            let stall = self.current_batch_ops;
            self.recovery.queue_overflows += 1;
            self.recovery.backpressure_cycles += stall;
            self.counters.offchip_bytes += rejected * OP_STREAM_BYTES;
            pcu_cycles += stall;
        }
        self.batches.push(BatchTiming { pcu_cycles, sou_cycles, ops: self.current_batch_ops });
    }
}

impl IndexEngine for DcartAccel {
    fn name(&self) -> &'static str {
        "DCART"
    }

    fn run(&mut self, keys: &KeySet, ops: &[Op], run: &RunConfig) -> RunReport {
        let clock = Clock::mhz(self.config.clock_mhz);
        let hbm_latency_cycles = clock.ns_to_cycles(self.hbm.latency_ns);
        let plan = self.config.faults;
        let degrade = self.config.degrade;
        let mut consumer = AccelConsumer {
            cfg: self.config,
            clock,
            hbm_latency_cycles,
            tree_buffer: ObjectBuffer::new(
                self.config.tree_buffer_bytes,
                self.config.tree_buffer_policy,
            ),
            shortcut_buffer: ObjectBuffer::new(
                self.config.shortcut_buffer_bytes,
                BufferPolicy::Lru,
            ),
            sou_occupancy: Vec::new(),
            sou_latency: Vec::new(),
            counters: Counters::default(),
            redundancy: RedundancyWindow::new(run.concurrency),
            contention: ContentionWindow::new(usize::MAX >> 1),
            batches: Vec::new(),
            current_batch_ops: 0,
            imbalance_sum: 0.0,
            onchip_accesses: 0,
            plan,
            injector: FaultInjector::for_plan(&plan),
            recovery: RecoveryStats::default(),
            buffer_degrade: DegradationController::new(
                if degrade.enabled { degrade.tree_buffer_error_threshold } else { 0.0 },
                degrade.window,
            ),
            tree_buffer_active: true,
            dispatch: Dispatch::new(self.config.buckets(), self.config.sous),
            dispatch_degraded: false,
            scan_capacity: scan_capacity_ops(self.config.scan_buffer_bytes),
        };

        let (tree, stats, _) =
            execute_ctt(keys, ops, &self.config, run.concurrency, &self.exec, &mut consumer)
                .expect("IndexEngine contract: a positive concurrency over a prefix-free key set");

        // Assemble cycle timeline with (or without) PCU/SOU overlap.
        let mut pcu_done: u64 = 0;
        let mut sou_end: u64 = 0;
        let mut latency = LatencyRecorder::new();
        let mut sou_busy: u64 = 0;
        for b in &consumer.batches {
            if self.config.overlap_enabled {
                pcu_done += b.pcu_cycles;
                let sou_start = pcu_done.max(sou_end);
                sou_end = sou_start + b.sou_cycles;
            } else {
                let sou_start = sou_end + b.pcu_cycles;
                sou_end = sou_start + b.sou_cycles;
                pcu_done = sou_start;
            }
            sou_busy += b.sou_cycles;
            // An op waits for its batch to combine and operate.
            latency.record(clock.cycles_to_ns(b.pcu_cycles + b.sou_cycles) / 1e3);
        }
        // Cross-SOU conflicts serialize briefly at trigger time; shared
        // Shortcut_Table hash-bucket collisions synchronize the writers.
        let (totals, _history) = consumer.contention.finish();
        let contentions = totals.contentions + stats.shortcut_hash_collisions;
        let conflict_cycles = contentions * 8;
        let total_cycles = sou_end + conflict_cycles;
        let time_s = clock.cycles_to_seconds(total_cycles);

        let mut counters = consumer.counters;
        counters.redundant_node_visits = consumer.redundancy.redundant_visits;
        counters.lock_contentions = contentions;
        counters.lock_acquisitions += stats.shortcut_hash_collisions;

        let energy = EnergyModel::fpga_u280();
        let energy_j =
            energy.energy_joules(time_s, counters.offchip_bytes, consumer.onchip_accesses);

        // Time breakdown: PCU work that the overlap hides is not on the
        // critical path; attribute the visible cycles.
        let pcu_total: u64 = consumer.batches.iter().map(|b| b.pcu_cycles).sum();
        let visible_pcu = if self.config.overlap_enabled {
            total_cycles.saturating_sub(sou_busy + conflict_cycles)
        } else {
            pcu_total
        };
        let breakdown = TimeBreakdown {
            traversal_s: clock.cycles_to_seconds(sou_busy),
            sync_s: clock.cycles_to_seconds(conflict_cycles),
            combine_s: clock.cycles_to_seconds(visible_pcu),
            other_s: 0.0,
        };

        // Fold the shortcut-table fault accounting (kept by the functional
        // CTT layer) into the run-level recovery stats, and digest the
        // final tree so chaos runs can compare end states.
        let mut recovery = consumer.recovery;
        recovery.shortcut_corruptions += stats.shortcut.corruptions_injected;
        recovery.shortcut_fallbacks += stats.shortcut.corruption_fallbacks;
        recovery.shortcut_disables += stats.shortcut_disables;
        let tree_digest = tree_digest(&tree);

        let batches = consumer.batches.len().max(1) as f64;
        self.details = AccelDetails {
            bucket_imbalance: consumer.imbalance_sum / batches,
            tree_buffer_hit_ratio: consumer.tree_buffer.stats().hit_ratio(),
            shortcut_buffer_hit_ratio: consumer.shortcut_buffer.stats().hit_ratio(),
            batches: consumer.batches,
            total_cycles,
            traverse_nodes_visited: stats.shortcut.nodes_visited,
            traverse_ops_advanced: stats.shortcut.ops_advanced,
            answer_digest: stats.answer_digest,
            tree_digest,
            recovery,
        };
        debug_assert_eq!(stats.ops, counters.ops);

        let p99 = latency.percentile(0.99);
        RunReport {
            engine: self.name().to_string(),
            workload: keys.name.clone(),
            counters,
            time_s,
            breakdown,
            energy_j,
            latency_mean_us: latency.mean(),
            latency_p99_us: p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcart_baselines::{CpuBaseline, CpuConfig};
    use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

    fn setup(n_keys: usize, n_ops: usize) -> (KeySet, Vec<Op>, RunConfig) {
        let keys = Workload::Ipgeo.generate(n_keys, 1);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: n_ops, mix: Mix::C, ..Default::default() },
        );
        (keys, ops, RunConfig { concurrency: 8192 })
    }

    #[test]
    fn dcart_crushes_smart() {
        let (keys, ops, run) = setup(20_000, 60_000);
        let mut dcart = DcartAccel::new(DcartConfig::default().scaled_for_keys(20_000));
        let d = dcart.run(&keys, &ops, &run);
        let smart = CpuBaseline::smart(CpuConfig::xeon_8468().scaled_for_keys(20_000))
            .run(&keys, &ops, &run);
        let speedup = smart.time_s / d.time_s;
        assert!(speedup > 5.0, "DCART vs SMART speedup only {speedup}");
    }

    #[test]
    fn overlap_hides_combining() {
        let (keys, ops, run) = setup(10_000, 40_000);
        let mut with = DcartAccel::new(DcartConfig::default().scaled_for_keys(10_000));
        let with_t = with.run(&keys, &ops, &run).time_s;
        let mut cfg = DcartConfig::default().scaled_for_keys(10_000);
        cfg.overlap_enabled = false;
        let mut without = DcartAccel::new(cfg);
        let without_t = without.run(&keys, &ops, &run).time_s;
        assert!(with_t < without_t, "{with_t} vs {without_t}");
    }

    #[test]
    fn shortcuts_reduce_traversed_nodes() {
        let (keys, ops, run) = setup(10_000, 40_000);
        let mut on = DcartAccel::new(DcartConfig::default().scaled_for_keys(10_000));
        let r_on = on.run(&keys, &ops, &run);
        let mut cfg = DcartConfig::default().scaled_for_keys(10_000);
        cfg.shortcuts_enabled = false;
        let mut off = DcartAccel::new(cfg);
        let r_off = off.run(&keys, &ops, &run);
        assert!(r_on.counters.nodes_traversed < r_off.counters.nodes_traversed);
        assert!(
            r_on.time_s <= r_off.time_s * 1.1,
            "shortcuts must not cost time: {} vs {}",
            r_on.time_s,
            r_off.time_s
        );
        assert!(r_on.counters.shortcut_hits > 0);
        assert_eq!(r_off.counters.shortcut_hits, 0);
    }

    #[test]
    fn value_aware_beats_lru_under_coalesced_streams() {
        // §III-E's claim, end to end: under the coalesced access stream
        // (each node fetched once per bucket-batch), LRU has no recency
        // signal left and thrashes, while node values persist across
        // batches and keep the hot set resident. Both policies
        // produce identical functional results, and value-aware retains
        // high-value nodes across batches where LRU (whose recency signal
        // the once-per-batch coalesced access stream destroys) thrashes.
        let (keys, ops, run) = setup(30_000, 60_000);
        // Shrink the tree buffer hard so replacement policy matters.
        let mut cfg = DcartConfig {
            tree_buffer_bytes: 64 * 1024,
            shortcut_buffer_bytes: 8 * 1024,
            ..Default::default()
        };
        let mut va = DcartAccel::new(cfg);
        let r_va = va.run(&keys, &ops, &run);
        let va_hits = va.last_details().tree_buffer_hit_ratio;
        cfg.tree_buffer_policy = BufferPolicy::Lru;
        let mut lru = DcartAccel::new(cfg);
        let r_lru = lru.run(&keys, &ops, &run);
        let lru_hits = lru.last_details().tree_buffer_hit_ratio;
        assert!(
            va_hits > lru_hits,
            "value-aware {va_hits} must beat LRU {lru_hits} under coalesced streams"
        );
        // Same functional results regardless of policy.
        assert_eq!(r_va.counters.ops, r_lru.counters.ops);
        assert_eq!(r_va.counters.nodes_traversed, r_lru.counters.nodes_traversed);
    }

    #[test]
    fn details_populated() {
        let (keys, ops, run) = setup(5_000, 20_000);
        let mut dcart = DcartAccel::new(DcartConfig::default().scaled_for_keys(5_000));
        let r = dcart.run(&keys, &ops, &run);
        let d = dcart.last_details();
        assert!(!d.batches.is_empty());
        assert!(d.bucket_imbalance >= 1.0);
        assert!(d.total_cycles > 0);
        assert!(r.latency_p99_us >= r.latency_mean_us);
        assert!(r.energy_j > 0.0);
        assert!(d.answer_digest != 0);
        assert!(d.tree_digest != 0);
        assert_eq!(d.recovery, RecoveryStats::default(), "fault-free run injects nothing");
    }

    /// Runs the same workload under `cfg` and returns (details, time).
    fn faulted_run(cfg: DcartConfig) -> (AccelDetails, f64) {
        let (keys, ops, run) = setup(10_000, 40_000);
        let mut dcart = DcartAccel::new(cfg);
        let r = dcart.run(&keys, &ops, &run);
        (dcart.last_details().clone(), r.time_s)
    }

    #[test]
    fn every_fault_class_preserves_answers_and_slows_the_run() {
        let clean_cfg = DcartConfig::default().scaled_for_keys(10_000);
        let (clean, clean_t) = faulted_run(clean_cfg);
        let plans: [(&str, FaultPlan); 5] = [
            ("hbm", FaultPlan { seed: 11, hbm_transient_rate: 0.05, ..FaultPlan::none() }),
            ("shortcut", FaultPlan { seed: 12, shortcut_corrupt_rate: 0.1, ..FaultPlan::none() }),
            ("storm", FaultPlan { seed: 13, evict_storm_rate: 0.5, ..FaultPlan::none() }),
            (
                "stall",
                FaultPlan {
                    seed: 14,
                    pipeline_stall_rate: 0.1,
                    pipeline_stall_cycles: 32,
                    ..FaultPlan::none()
                },
            ),
            (
                "overflow+outage",
                FaultPlan {
                    seed: 15,
                    queue_overflow_rate: 0.5,
                    sou_outage_rate: 0.5,
                    ..FaultPlan::none()
                },
            ),
        ];
        for (name, plan) in plans {
            let mut cfg = clean_cfg;
            cfg.faults = plan;
            let (faulty, faulty_t) = faulted_run(cfg);
            assert_eq!(faulty.answer_digest, clean.answer_digest, "{name}: answers diverged");
            assert_eq!(faulty.tree_digest, clean.tree_digest, "{name}: end state diverged");
            assert!(faulty.recovery.total_injected() > 0, "{name}: nothing injected");
            assert!(
                faulty_t >= clean_t,
                "{name}: faults must not speed the run up ({faulty_t} vs {clean_t})"
            );
        }
    }

    #[test]
    fn fault_runs_are_reproducible() {
        let mut cfg = DcartConfig::default().scaled_for_keys(10_000);
        cfg.faults = FaultPlan {
            seed: 99,
            hbm_transient_rate: 0.02,
            shortcut_corrupt_rate: 0.05,
            evict_storm_rate: 0.2,
            pipeline_stall_rate: 0.05,
            pipeline_stall_cycles: 16,
            sou_outage_rate: 0.2,
            queue_overflow_rate: 0.2,
            ..FaultPlan::none()
        };
        let (a, t_a) = faulted_run(cfg);
        let (b, t_b) = faulted_run(cfg);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(t_a, t_b);
    }

    #[test]
    fn heavy_transients_trip_tree_buffer_degradation() {
        let clean_cfg = DcartConfig::default().scaled_for_keys(10_000);
        let (clean, _) = faulted_run(clean_cfg);
        let mut cfg = clean_cfg;
        cfg.faults = FaultPlan { seed: 21, hbm_transient_rate: 0.9, ..FaultPlan::none() };
        cfg.degrade.tree_buffer_error_threshold = 0.3;
        cfg.degrade.window = 64;
        let (faulty, _) = faulted_run(cfg);
        assert_eq!(faulty.recovery.tree_buffer_disables, 1, "latch trips once");
        assert!(faulty.recovery.hbm_retries > 0, "bounded retry ran");
        assert_eq!(faulty.answer_digest, clean.answer_digest, "degraded mode stays correct");
        assert_eq!(faulty.tree_digest, clean.tree_digest);
    }

    #[test]
    fn sou_outage_remaps_and_overflow_backpressures() {
        let clean_cfg = DcartConfig::default().scaled_for_keys(10_000);
        let mut cfg = clean_cfg;
        cfg.faults = FaultPlan {
            seed: 31,
            sou_outage_rate: 1.0,
            queue_overflow_rate: 1.0,
            ..FaultPlan::none()
        };
        let (faulty, faulty_t) = faulted_run(cfg);
        let (_, clean_t) = faulted_run(clean_cfg);
        assert!(faulty.recovery.sou_outages > 0);
        assert!(faulty.recovery.queue_overflows > 0);
        assert!(faulty.recovery.backpressure_cycles > 0);
        assert!(faulty_t > clean_t, "losing an SOU every batch must cost time");
    }

    #[test]
    fn every_overflowed_batch_stalls_one_cycle_per_op() {
        let (keys, ops, run) = setup(10_000, 40_000);
        let clean_cfg = DcartConfig::default().scaled_for_keys(10_000);
        let mut cfg = clean_cfg;
        cfg.faults = FaultPlan { seed: 41, queue_overflow_rate: 1.0, ..FaultPlan::none() };
        let clean = DcartAccel::new(clean_cfg).run(&keys, &ops, &run);
        let mut dcart = DcartAccel::new(cfg);
        let faulty = dcart.run(&keys, &ops, &run);
        let d = dcart.last_details();
        let batch_ops: u64 = d.batches.iter().map(|b| b.ops).sum();
        assert_eq!(batch_ops, ops.len() as u64);
        assert_eq!(d.recovery.queue_overflows, d.batches.len() as u64);
        assert_eq!(d.recovery.backpressure_cycles, batch_ops);
        // What the Scan buffer cannot park is streamed in twice.
        let capacity = scan_capacity_ops(cfg.scan_buffer_bytes);
        let restreamed: u64 = d.batches.iter().map(|b| b.ops.saturating_sub(capacity)).sum();
        assert!(restreamed > 0, "a batch larger than the Scan buffer");
        assert_eq!(
            faulty.counters.offchip_bytes,
            clean.counters.offchip_bytes + restreamed * OP_STREAM_BYTES
        );
    }
}
