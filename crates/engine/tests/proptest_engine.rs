//! Property-based tests for the timing primitives.

use dcart_engine::{Clock, LatencyRecorder, NonBlockingUnit};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Clock conversions round-trip within one cycle.
    #[test]
    fn clock_roundtrip(mhz in 1.0f64..3000.0, cycles in 0u64..1 << 40) {
        let clk = Clock::mhz(mhz);
        let ns = clk.cycles_to_ns(cycles);
        let back = clk.ns_to_cycles(ns);
        prop_assert!(back >= cycles && back <= cycles + 1, "{cycles} -> {back}");
    }

    /// Percentiles are monotone in p and bounded by min/max of the samples.
    #[test]
    fn percentiles_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..300)) {
        let mut r = LatencyRecorder::new();
        for &s in &samples {
            r.record(s);
        }
        let p50 = r.percentile(0.5);
        let p90 = r.percentile(0.9);
        let p99 = r.percentile(0.99);
        let max = r.percentile(1.0);
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p50 >= lo && max <= hi);
        prop_assert!(r.mean() >= lo && r.mean() <= hi);
    }

    /// The non-blocking unit's drain respects both analytic lower bounds
    /// (issue occupancy; per-op latency) and the serial upper bound.
    #[test]
    fn non_blocking_unit_bounds(
        ops in proptest::collection::vec((1u64..8, 1u64..100), 1..200),
        outstanding in 1usize..32,
    ) {
        let mut u = NonBlockingUnit::new(outstanding);
        let mut prev_done = 0u64;
        for &(occ, lat) in &ops {
            let done = u.issue(occ, lat);
            prop_assert!(done >= lat, "completion at least its own latency");
            // Completions of a min-heap window never regress past drain.
            prev_done = prev_done.max(done);
        }
        let drain = u.drain_cycle();
        prop_assert_eq!(drain, prev_done);
        let occ_sum: u64 = ops.iter().map(|&(o, _)| o).sum();
        let serial: u64 = ops.iter().map(|&(o, l)| o.max(l)).sum();
        prop_assert!(drain >= occ_sum, "issue port is serial");
        prop_assert!(drain <= serial, "never slower than fully blocking");
    }
}
