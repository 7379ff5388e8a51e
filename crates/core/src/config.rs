//! DCART configuration — the parameters of the paper's Table I, plus the
//! fault-injection plan and graceful-degradation thresholds.
//!
//! A [`DcartConfig`] says *what* the model computes; how the host executes
//! it (worker threads, traverse mode, claim order) is the separate
//! [`ExecOpts`](crate::ExecOpts), which changes no result.

use dcart_engine::FaultPlan;
use dcart_mem::BufferPolicy;
use serde::Serialize;

/// Full configuration of a DCART instance.
///
/// Defaults reproduce Table I of the paper: 1 PCU, 1 Dispatcher, 16 SOUs;
/// a 512 KB Scan buffer, 2 MB Bucket buffer, 128 KB Shortcut buffer, and
/// 4 MB Tree buffer; a conservative 230 MHz clock on the Alveo U280; and
/// an 8-bit combining prefix (§III-B: "the first 8 bits of the key are used
/// as the specified prefix by default").
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DcartConfig {
    /// Prefix-based Combining Units.
    pub pcus: usize,
    /// Dispatchers.
    pub dispatchers: usize,
    /// Shortcut-based Operating Units.
    pub sous: usize,
    /// Scan buffer capacity (arriving operations), bytes.
    pub scan_buffer_bytes: u64,
    /// Bucket buffer capacity (bucket tables), bytes.
    pub bucket_buffer_bytes: u64,
    /// Shortcut buffer capacity (cached shortcut entries), bytes.
    pub shortcut_buffer_bytes: u64,
    /// Tree buffer capacity (cached ART nodes), bytes.
    pub tree_buffer_bytes: u64,
    /// Accelerator clock in MHz.
    pub clock_mhz: f64,
    /// Combining prefix width in bits.
    pub prefix_bits: u32,
    /// Bytes of constant key prefix skipped before extracting the
    /// combining prefix. The paper's "first 8 bits" default degenerates to
    /// one bucket when every key shares its high byte (dense fixed-width
    /// integers); the host driver programs this register to the key set's
    /// common-prefix length. See [`DcartConfig::with_auto_prefix_skip`].
    pub prefix_skip_bytes: usize,
    /// Replacement policy of the Tree buffer (§III-E: value-aware by
    /// default; set to LRU for the ablation).
    pub tree_buffer_policy: BufferPolicy,
    /// Whether shortcuts are maintained and used (§III-C; ablation knob).
    pub shortcuts_enabled: bool,
    /// Whether PCU combining overlaps SOU operating across batches
    /// (§III-D, Fig. 6; ablation knob).
    pub overlap_enabled: bool,
    /// Adaptive hot-bucket split threshold, as a fraction of the batch
    /// size: a bucket whose per-batch op count exceeds
    /// `threshold × batch_size` splits into sub-shards on the next prefix
    /// byte, and re-merges once it cools (see the executor docs in
    /// `dcart::ctt`). `1.0` never splits; `0.0` splits every active
    /// bucket. `None` (the default) never splits, like `1.0`.
    ///
    /// The threshold changes the split schedule and with it the event
    /// stream and stats — never answers or the final tree. Split decisions
    /// depend only on op counts, so for a fixed threshold every observable
    /// of the run is identical at any thread count and steal setting.
    pub split_threshold: Option<f64>,
    /// Deterministic fault-injection plan (default: inject nothing). See
    /// `dcart_engine::faults`.
    pub faults: FaultPlan,
    /// Graceful-degradation thresholds (when a component's error rate
    /// crosses its threshold, the accelerator disables it and falls back to
    /// the slow-but-correct path).
    pub degrade: DegradeConfig,
}

/// Thresholds for the degradation controller in the accelerator model.
///
/// Each guarded component (shortcut table, Tree buffer) tracks its error
/// rate over a sliding window; crossing the threshold trips a sticky
/// disable latch. Defaults are far above any rate a fault-free run
/// produces, so degradation never fires without injected faults.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct DegradeConfig {
    /// Master switch for the degradation controller.
    pub enabled: bool,
    /// Shortcut-table disable threshold: fraction of probes in a window
    /// that were stale/corrupt.
    pub shortcut_stale_threshold: f64,
    /// Tree-buffer disable threshold: fraction of off-chip node fetches in
    /// a window that suffered a (injected) transient error.
    pub tree_buffer_error_threshold: f64,
    /// Window length in events for both controllers.
    pub window: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            enabled: true,
            shortcut_stale_threshold: 0.75,
            tree_buffer_error_threshold: 0.75,
            window: 512,
        }
    }
}

impl Default for DcartConfig {
    fn default() -> Self {
        DcartConfig {
            pcus: 1,
            dispatchers: 1,
            sous: 16,
            scan_buffer_bytes: 512 * 1024,
            bucket_buffer_bytes: 2 * 1024 * 1024,
            shortcut_buffer_bytes: 128 * 1024,
            tree_buffer_bytes: 4 * 1024 * 1024,
            clock_mhz: 230.0,
            prefix_bits: 8,
            prefix_skip_bytes: 0,
            tree_buffer_policy: BufferPolicy::ValueAware,
            shortcuts_enabled: true,
            overlap_enabled: true,
            split_threshold: None,
            faults: FaultPlan::none(),
            degrade: DegradeConfig::default(),
        }
    }
}

impl DcartConfig {
    /// Table I verbatim.
    pub fn table_i() -> Self {
        Self::default()
    }

    /// Scales the on-chip buffers so `keys` occupies the same fraction of
    /// the Tree buffer as 50 M keys would at paper scale, keeping hit-ratio
    /// regimes comparable in sub-scale reproductions. Clocks and unit
    /// counts are untouched.
    pub fn scaled_for_keys(mut self, keys: usize) -> Self {
        let scale = (keys as f64 / 50_000_000.0).min(1.0);
        let shrink = |b: u64| ((b as f64 * scale) as u64).max(4 * 1024);
        self.tree_buffer_bytes = shrink(self.tree_buffer_bytes);
        self.shortcut_buffer_bytes = shrink(self.shortcut_buffer_bytes);
        self.bucket_buffer_bytes = shrink(self.bucket_buffer_bytes);
        self.scan_buffer_bytes = shrink(self.scan_buffer_bytes);
        self
    }

    /// Sets [`prefix_skip_bytes`](DcartConfig::prefix_skip_bytes) to the
    /// common-prefix length of the loaded key set (computed from its
    /// lexicographic extremes), so combining starts at the first
    /// discriminating key byte.
    pub fn with_auto_prefix_skip(mut self, keys: &dcart_workloads::KeySet) -> Self {
        let Some(min) = keys.keys.iter().map(|k| k.as_bytes()).min() else {
            return self;
        };
        let max = keys.keys.iter().map(|k| k.as_bytes()).max().expect("non-empty");
        let common = min.iter().zip(max).take_while(|(a, b)| a == b).count();
        // Never skip the whole key.
        self.prefix_skip_bytes = common.min(min.len().saturating_sub(1));
        self
    }

    /// Number of combining buckets (one bucket table per SOU; §III-B
    /// creates sixteen tables for the default 16 SOUs).
    pub fn buckets(&self) -> usize {
        self.sous
    }

    /// Maps a combining prefix value to its bucket index.
    pub fn bucket_of(&self, prefix: u64) -> usize {
        (prefix % self.buckets() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_i() {
        let c = DcartConfig::table_i();
        assert_eq!(c.pcus, 1);
        assert_eq!(c.dispatchers, 1);
        assert_eq!(c.sous, 16);
        assert_eq!(c.scan_buffer_bytes, 512 * 1024);
        assert_eq!(c.bucket_buffer_bytes, 2 * 1024 * 1024);
        assert_eq!(c.shortcut_buffer_bytes, 128 * 1024);
        assert_eq!(c.tree_buffer_bytes, 4 * 1024 * 1024);
        assert_eq!(c.clock_mhz, 230.0);
        assert_eq!(c.prefix_bits, 8);
        assert_eq!(c.tree_buffer_policy, BufferPolicy::ValueAware);
        assert!(!c.faults.is_active(), "no faults by default");
        assert!(c.split_threshold.is_none(), "an unset split threshold never splits");
        assert!(c.degrade.enabled);
        assert!(c.degrade.shortcut_stale_threshold > 0.5, "far above natural stale rates");
    }

    #[test]
    fn bucket_mapping_covers_all_buckets() {
        let c = DcartConfig::default();
        let mut seen = vec![false; c.buckets()];
        for p in 0..256u64 {
            seen[c.bucket_of(p)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn scaling_preserves_units_and_clock() {
        let c = DcartConfig::default().scaled_for_keys(1_000_000);
        assert_eq!(c.sous, 16);
        assert_eq!(c.clock_mhz, 230.0);
        assert!(c.tree_buffer_bytes < 4 * 1024 * 1024);
        assert!(c.tree_buffer_bytes >= 4 * 1024);
        assert_eq!(
            DcartConfig::default().scaled_for_keys(60_000_000).tree_buffer_bytes,
            4 * 1024 * 1024
        );
    }
}
