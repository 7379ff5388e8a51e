//! The unified run report every engine produces.
//!
//! All of the paper's exhibits are projections of this structure: Fig. 7
//! reads `counters.lock_contentions`, Fig. 8 `counters.partial_key_matches`,
//! Fig. 9 `time_s`, Fig. 10 the latency fields, Fig. 11 `energy_j`, and
//! Fig. 2 the breakdown/utilization fields.

use serde::Serialize;

/// Event counters accumulated over a run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize)]
pub struct Counters {
    /// Operations executed.
    pub ops: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations (update/insert/remove).
    pub writes: u64,
    /// Tree nodes fetched, totalled over all operations.
    pub nodes_traversed: u64,
    /// Node fetches that re-visited a node some concurrent operation had
    /// already fetched (the paper's "redundant traversed nodes", Fig. 2(b)).
    pub redundant_node_visits: u64,
    /// Partial-key comparisons (Fig. 8).
    pub partial_key_matches: u64,
    /// Lock (or CAS) acquisitions by the concurrency-control protocol.
    pub lock_acquisitions: u64,
    /// Acquisitions that had to wait on a concurrent holder (Fig. 7).
    pub lock_contentions: u64,
    /// Bytes moved across the off-chip memory interface.
    pub offchip_bytes: u64,
    /// Off-chip memory accesses.
    pub offchip_accesses: u64,
    /// Bytes the operations actually consumed (for Fig. 2(c)).
    pub useful_bytes: u64,
    /// Bytes fetched into cache lines / buffers.
    pub fetched_bytes: u64,
    /// DCART only: shortcut-table hits.
    pub shortcut_hits: u64,
    /// DCART only: shortcut-table misses (full traversals).
    pub shortcut_misses: u64,
    /// On-chip buffer / cache hits.
    pub cache_hits: u64,
    /// On-chip buffer / cache misses.
    pub cache_misses: u64,
}

impl Counters {
    /// Redundant-visit ratio in `[0, 1]` (Fig. 2(b)).
    pub fn redundancy_ratio(&self) -> f64 {
        if self.nodes_traversed == 0 {
            0.0
        } else {
            self.redundant_node_visits as f64 / self.nodes_traversed as f64
        }
    }

    /// Cache-line utilization in `[0, 1]` (Fig. 2(c)).
    pub fn line_utilization(&self) -> f64 {
        if self.fetched_bytes == 0 {
            0.0
        } else {
            (self.useful_bytes as f64 / self.fetched_bytes as f64).min(1.0)
        }
    }
}

/// Where the execution time went (paper Fig. 2(a) and 2(d)).
#[derive(Clone, Copy, Default, PartialEq, Debug, Serialize)]
pub struct TimeBreakdown {
    /// Tree traversal: node fetches and partial-key matching.
    pub traversal_s: f64,
    /// Synchronization: locks, CAS, contention stalls.
    pub sync_s: f64,
    /// DCART/DCART-C only: operation combining and shortcut maintenance.
    pub combine_s: f64,
    /// Everything else (dispatch, value handling).
    pub other_s: f64,
}

impl TimeBreakdown {
    /// Total across all buckets.
    pub fn total_s(&self) -> f64 {
        self.traversal_s + self.sync_s + self.combine_s + self.other_s
    }

    /// Fraction of time spent on synchronization (Fig. 2(d)).
    pub fn sync_fraction(&self) -> f64 {
        let t = self.total_s();
        if t == 0.0 {
            0.0
        } else {
            self.sync_s / t
        }
    }
}

/// Complete result of one engine × workload run.
#[derive(Clone, Debug, Serialize)]
pub struct RunReport {
    /// Engine name ("ART", "SMART", "CuART", "DCART-C", "DCART").
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// Event counters.
    pub counters: Counters,
    /// Modelled wall-clock time in seconds.
    pub time_s: f64,
    /// Where the time went.
    pub breakdown: TimeBreakdown,
    /// Modelled energy in joules (Fig. 11).
    pub energy_j: f64,
    /// Mean per-operation latency in microseconds.
    pub latency_mean_us: f64,
    /// 99th-percentile per-operation latency in microseconds (Fig. 10).
    pub latency_p99_us: f64,
}

impl RunReport {
    /// Throughput in million operations per second.
    pub fn throughput_mops(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.counters.ops as f64 / self.time_s / 1e6
        }
    }

    /// Speedup of this run relative to `other` (how much faster `self` is).
    pub fn speedup_vs(&self, other: &RunReport) -> f64 {
        other.time_s / self.time_s
    }

    /// Energy saving of this run relative to `other`.
    pub fn energy_saving_vs(&self, other: &RunReport) -> f64 {
        other.energy_j / self.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time_s: f64, energy_j: f64) -> RunReport {
        RunReport {
            engine: "X".into(),
            workload: "W".into(),
            counters: Counters { ops: 1_000_000, ..Counters::default() },
            time_s,
            breakdown: TimeBreakdown::default(),
            energy_j,
            latency_mean_us: 0.0,
            latency_p99_us: 0.0,
        }
    }

    #[test]
    fn ratios() {
        let fast = report(0.1, 5.0);
        let slow = report(4.0, 400.0);
        assert!((fast.speedup_vs(&slow) - 40.0).abs() < 1e-9);
        assert!((fast.energy_saving_vs(&slow) - 80.0).abs() < 1e-9);
        assert!((fast.throughput_mops() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn counter_ratios() {
        let c = Counters {
            nodes_traversed: 100,
            redundant_node_visits: 80,
            useful_bytes: 20,
            fetched_bytes: 100,
            ..Counters::default()
        };
        assert!((c.redundancy_ratio() - 0.8).abs() < 1e-12);
        assert!((c.line_utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn breakdown_fractions() {
        let b = TimeBreakdown { traversal_s: 3.0, sync_s: 6.0, combine_s: 0.0, other_s: 1.0 };
        assert!((b.total_s() - 10.0).abs() < 1e-12);
        assert!((b.sync_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_do_not_divide_by_zero() {
        let c = Counters::default();
        assert_eq!(c.redundancy_ratio(), 0.0);
        assert_eq!(c.line_utilization(), 0.0);
    }
}
