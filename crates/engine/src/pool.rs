//! A scoped worker pool for data-parallel execution over disjoint shards.
//!
//! The CTT executor owns one state shard per combining bucket; within a
//! batch the shards are fully independent (prefix-disjoint buckets touch
//! disjoint subtrees, shortcut shards, and scratch arenas). This helper
//! fans a `&mut` slice of such shards over a bounded set of scoped threads
//! with one shared claim cursor. It is the workspace's one pool: the bench
//! harness fans its experiment cells over it too, one `(input, result)`
//! slot per cell.
//!
//! Idle workers claim the next slot in slice order, so a caller that
//! orders its slots heaviest first gets greedy longest-processing-time
//! scheduling from the same loop (the CTT executor's `ExecOpts::steal`).
//!
//! Determinism contract: the closure receives each shard exactly once, and
//! because shards share nothing, the *outcome* per shard is independent of
//! which worker ran it or in what order. With `workers <= 1` the loop runs
//! inline on the caller's thread through the identical code path, which is
//! what makes single-threaded and multi-threaded runs byte-identical by
//! construction.

// Under `--features loom` the pool runs on the vendored loom model
// checker's primitives (see vendor/loom and tests/loom.rs); outside a
// loom::model call they are passthroughs to std, so ordinary tests are
// unaffected.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "loom")]
use loom::sync::Mutex;
#[cfg(feature = "loom")]
use loom::thread;
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::Mutex;
#[cfg(not(feature = "loom"))]
use std::thread;

/// Runs `work(i, &mut slots[i])` for every slot, fanned over at most
/// `workers` scoped threads.
///
/// Slots are claimed in slice order through an atomic cursor, so a slow
/// shard never blocks the others. `workers <= 1` (or a single slot)
/// executes inline with no thread machinery at all.
pub fn par_for_each_mut<T, F>(slots: &mut [T], workers: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = slots.len();
    if workers <= 1 || n <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            work(i, slot);
        }
        return;
    }
    let cells: Vec<Mutex<(usize, &mut T)>> = slots.iter_mut().enumerate().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                // dcart_lint::atomic(work-claim ticket; the Mutex below synchronizes slot data)
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Each cell is locked exactly once (the cursor hands every
                // index to a single worker); a poisoned lock can only mean
                // a sibling worker panicked, in which case the scope is
                // already unwinding.
                let Ok(mut cell) = cells[i].lock() else { break };
                let (idx, slot) = &mut *cell;
                work(*idx, slot);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_visited_exactly_once() {
        for workers in [0, 1, 2, 4, 16] {
            let mut slots = vec![0u64; 37];
            par_for_each_mut(&mut slots, workers, |i, s| *s += i as u64 + 1);
            let expect: Vec<u64> = (0..37).map(|i| i + 1).collect();
            assert_eq!(slots, expect, "workers={workers}");
        }
    }

    #[test]
    fn outcome_is_independent_of_worker_count() {
        let run = |workers: usize| {
            let mut slots: Vec<Vec<u64>> = (0..16).map(|_| Vec::new()).collect();
            par_for_each_mut(&mut slots, workers, |i, s| {
                for k in 0..100u64 {
                    s.push(i as u64 * 1_000 + k);
                }
            });
            slots
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn heaviest_first_references_visit_every_slot_exactly_once() {
        // The CTT executor's `steal` shape: `&mut` references to the
        // slots, stably sorted by descending weight, through the same pool.
        let weights: Vec<u64> = (0..37u64).map(|i| (i * 7) % 13).collect();
        for workers in [0, 1, 2, 4, 16] {
            let mut slots = vec![0u64; 37];
            let mut order: Vec<(usize, &mut u64)> = slots.iter_mut().enumerate().collect();
            order.sort_by_key(|&(i, _)| std::cmp::Reverse(weights[i]));
            par_for_each_mut(&mut order, workers, |_, (i, s)| **s += *i as u64 + 1);
            let expect: Vec<u64> = (0..37).map(|i| i + 1).collect();
            assert_eq!(slots, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_slices_run_inline() {
        let mut none: Vec<u64> = Vec::new();
        par_for_each_mut(&mut none, 8, |_, _| unreachable!());
        let mut one = vec![41u64];
        par_for_each_mut(&mut one, 8, |_, s| *s += 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn more_workers_than_slots_is_fine() {
        let mut slots = vec![0u8; 3];
        par_for_each_mut(&mut slots, 64, |_, s| *s = 1);
        assert_eq!(slots, vec![1, 1, 1]);
    }
}
