//! A non-blocking execution-unit simulator.
//!
//! [`NonBlockingUnit`] is the event-level twin of the accelerator model's
//! analytic SOU formula (`max(Σ occupancy, Σ latency / outstanding)`): it
//! simulates an issue port with a bounded window of in-flight operations,
//! so the closed form can be *validated* against event-accurate behaviour
//! (see the `analytic_sou_formula_is_tight` test).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An execution unit with a serial issue port and a bounded window of
/// in-flight operations (MSHR-style).
///
/// Each operation occupies the issue port for `occupancy` cycles and an
/// in-flight slot until `latency` cycles after its issue start. Issue
/// stalls when all slots are busy — the behaviour the accelerator model's
/// `max(Σ occupancy, Σ latency / outstanding)` formula approximates.
#[derive(Debug)]
// dcart_lint::allow(U1) -- event-level twin that validates the accelerator's closed-form SOU timing
pub struct NonBlockingUnit {
    outstanding: usize,
    /// Completion times of in-flight operations (min-heap).
    in_flight: BinaryHeap<Reverse<u64>>,
    issue_free: u64,
    last_completion: u64,
}

impl NonBlockingUnit {
    /// Creates an idle unit sustaining `outstanding` in-flight operations.
    ///
    /// # Panics
    ///
    /// Panics if `outstanding` is zero.
    pub fn new(outstanding: usize) -> Self {
        assert!(outstanding > 0, "at least one slot required");
        NonBlockingUnit {
            outstanding,
            in_flight: BinaryHeap::new(),
            issue_free: 0,
            last_completion: 0,
        }
    }

    /// Issues one operation; returns its completion cycle.
    // dcart_lint::allow(U1) -- event-level twin that validates the accelerator's closed-form SOU timing
    pub fn issue(&mut self, occupancy: u64, latency: u64) -> u64 {
        // Wait for the issue port, then for a free slot.
        let mut start = self.issue_free;
        if self.in_flight.len() == self.outstanding {
            let Reverse(freed) = self.in_flight.pop().expect("window full implies entries");
            start = start.max(freed);
        }
        self.issue_free = start + occupancy;
        let done = start + latency.max(occupancy);
        self.in_flight.push(Reverse(done));
        self.last_completion = self.last_completion.max(done);
        done
    }

    /// Cycle at which every issued operation has completed.
    // dcart_lint::allow(U1) -- event-level twin that validates the accelerator's closed-form SOU timing
    pub fn drain_cycle(&self) -> u64 {
        self.last_completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_pipelines_up_to_window() {
        // 4 slots, occupancy 1, latency 10: the first 4 issue back to back,
        // the 5th waits for slot 1 to free.
        let mut u = NonBlockingUnit::new(4);
        let c: Vec<u64> = (0..5).map(|_| u.issue(1, 10)).collect();
        assert_eq!(c[..4], [10, 11, 12, 13]);
        assert_eq!(c[4], 20, "5th op waits for the first slot");
    }

    #[test]
    fn occupancy_bound_when_latency_small() {
        let mut u = NonBlockingUnit::new(8);
        for _ in 0..100 {
            u.issue(3, 4);
        }
        // Issue-port bound: ~3 cycles per op.
        assert!((297..=305).contains(&u.drain_cycle()), "{}", u.drain_cycle());
    }

    /// The accelerator model's closed form is a tight lower bound on the
    /// event-accurate unit: within [1.0, 1.5] across load shapes.
    #[test]
    fn analytic_sou_formula_is_tight() {
        let shapes: [&[(u64, u64)]; 4] = [
            // (occupancy, latency) per op, repeated.
            &[(1, 2)],                           // all on-chip hits
            &[(1, 25)],                          // all HBM misses
            &[(1, 2), (4, 60)],                  // mixed hit/deep-traversal
            &[(2, 2), (1, 25), (5, 80), (1, 2)], // irregular
        ];
        for shape in shapes {
            let outstanding = 16usize;
            let mut unit = NonBlockingUnit::new(outstanding);
            let (mut occ_sum, mut lat_sum) = (0u64, 0u64);
            for i in 0..2_000 {
                let (occ, lat) = shape[i % shape.len()];
                unit.issue(occ, lat);
                occ_sum += occ;
                lat_sum += lat;
            }
            let analytic = occ_sum.max(lat_sum / outstanding as u64);
            let simulated = unit.drain_cycle();
            let ratio = simulated as f64 / analytic as f64;
            assert!(
                (1.0..1.5).contains(&ratio),
                "shape {shape:?}: simulated {simulated} vs analytic {analytic} ({ratio:.3})"
            );
        }
    }
}
