//! A scoped worker pool for data-parallel execution over disjoint shards.
//!
//! The CTT executor owns one state shard per combining bucket; within a
//! batch the shards are fully independent (prefix-disjoint buckets touch
//! disjoint subtrees, shortcut shards, and scratch arenas). This helper
//! fans a `&mut` slice of such shards over a bounded set of scoped threads
//! with a work-stealing cursor. It is the workspace's one pool: the bench
//! harness fans its experiment cells over it too, one `(input, result)`
//! slot per cell.
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
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(feature = "loom")]
use loom::sync::Mutex;
#[cfg(feature = "loom")]
use loom::thread;
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::Mutex;
#[cfg(not(feature = "loom"))]
use std::thread;

use crate::queueing::StealQueue;

/// Runs `work(i, &mut slots[i])` for every slot, fanned over at most
/// `workers` scoped threads.
///
/// Slots are claimed through an atomic cursor, so a slow shard never blocks
/// the others. `workers <= 1` (or a single slot) executes inline with no
/// thread machinery at all.
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

/// Scheduling counters of one [`par_for_each_mut_balanced`] run.
///
/// These describe *where* work ran, which depends on thread timing — they
/// are intentionally not part of any deterministic statistics (the pool's
/// contract is that slot outcomes are schedule-independent; these counters
/// are the one place the schedule itself is allowed to show).
#[derive(Debug, Default)]
pub struct PoolStats {
    steal_events: AtomicU64,
    items_stolen: AtomicU64,
}

impl PoolStats {
    /// Successful steal-half grabs by idle workers.
    pub fn steal_events(&self) -> u64 {
        // dcart_lint::atomic(advisory scheduling counter, read after scope join)
        self.steal_events.load(Ordering::Relaxed)
    }

    /// Work items transferred by those grabs.
    pub fn items_stolen(&self) -> u64 {
        // dcart_lint::atomic(advisory scheduling counter, read after scope join)
        self.items_stolen.load(Ordering::Relaxed)
    }

    fn record_steal(&self, items: u64) {
        // dcart_lint::atomic(monotonic advisory counters; scope join orders the final read)
        self.steal_events.fetch_add(1, Ordering::Relaxed);
        // dcart_lint::atomic(monotonic advisory counter, same contract as steal_events)
        self.items_stolen.fetch_add(items, Ordering::Relaxed);
    }
}

/// [`par_for_each_mut`] with per-worker [`StealQueue`]s and steal-half
/// balancing, for workloads whose slots have wildly unequal costs (the
/// skewed-bucket case the CTT executor's sub-sharding targets).
///
/// Each worker starts with a deterministic share of the slots: slot
/// indices are sorted by descending `weights` (ties to the lower index)
/// and dealt round-robin, so every worker's initial deque holds a
/// near-equal weight share with its heaviest slot at the owner end. A
/// worker that drains its own deque steals the front half of the currently
/// longest sibling deque instead of parking. When `weights` is empty (or
/// mismatched in length) the deal falls back to slot order.
///
/// The determinism contract is unchanged from [`par_for_each_mut`]: every
/// slot is handed to `work` exactly once and slots share nothing, so
/// outcomes are byte-identical whether a slot ran on its owner or on a
/// thief — only wall-clock and the `stats` counters depend on the
/// schedule.
pub fn par_for_each_mut_balanced<T, F>(
    slots: &mut [T],
    workers: usize,
    weights: &[u64],
    stats: Option<&PoolStats>,
    work: F,
) where
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
    let w = workers.min(n);
    // Deterministic longest-processing-time deal: heaviest slots first,
    // round-robin over the workers.
    let mut order: Vec<u32> = (0..n as u32).collect();
    if weights.len() == n {
        order.sort_by_key(|&i| (std::cmp::Reverse(weights[i as usize]), i));
    }
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); w];
    for (round, &i) in order.iter().enumerate() {
        lists[round % w].push(i);
    }
    let deques: Vec<StealQueue> = lists
        .into_iter()
        .map(|mut l| {
            // Owners pop from the tail: reverse so each worker starts on
            // its heaviest slot while thieves relieve it of the lighter
            // front half.
            l.reverse();
            StealQueue::new(l)
        })
        .collect();
    let cells: Vec<Mutex<(usize, &mut T)>> = slots.iter_mut().enumerate().map(Mutex::new).collect();
    thread::scope(|scope| {
        for me in 0..w {
            let deques = &deques;
            let cells = &cells;
            let work = &work;
            scope.spawn(move || {
                // Items a steal grabbed beyond the first, executed before
                // stealing again. (They are invisible to other thieves —
                // acceptable: steal-half keeps any worker's private backlog
                // at most half of what the victim still had.)
                let mut backlog: Vec<u32> = Vec::new();
                loop {
                    let next = deques[me].pop().or_else(|| backlog.pop()).or_else(|| {
                        // Steal from the longest sibling deque
                        // (deterministic scan, ties to the lowest index);
                        // rescan after a lost race until everything is
                        // drained.
                        loop {
                            let mut victim = None;
                            let mut longest = 0usize;
                            for (v, d) in deques.iter().enumerate() {
                                let len = d.len();
                                if v != me && len > longest {
                                    longest = len;
                                    victim = Some(v);
                                }
                            }
                            let target = victim?;
                            if let Some(batch) = deques[target].steal_half() {
                                if let Some(stats) = stats {
                                    stats.record_steal(batch.len() as u64);
                                }
                                backlog.extend_from_slice(batch);
                                return backlog.pop();
                            }
                        }
                    });
                    let Some(i) = next else { break };
                    // Each slot index is claimed exactly once (pop and
                    // steal-half hand out disjoint ranges); a poisoned
                    // lock can only mean a sibling worker panicked, in
                    // which case the scope is already unwinding.
                    let Ok(mut cell) = cells[i as usize].lock() else { break };
                    let (idx, slot) = &mut *cell;
                    work(*idx, slot);
                }
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

    #[test]
    fn balanced_visits_every_slot_exactly_once() {
        for workers in [0, 1, 2, 4, 16] {
            for weights in [vec![], (0..37u64).rev().collect::<Vec<_>>()] {
                let mut slots = vec![0u64; 37];
                par_for_each_mut_balanced(&mut slots, workers, &weights, None, |i, s| {
                    *s += i as u64 + 1;
                });
                let expect: Vec<u64> = (0..37).map(|i| i + 1).collect();
                assert_eq!(slots, expect, "workers={workers} weighted={}", !weights.is_empty());
            }
        }
    }

    #[test]
    fn balanced_outcome_is_independent_of_worker_count_and_stealing() {
        let run = |workers: usize| {
            let mut slots: Vec<Vec<u64>> = (0..16).map(|_| Vec::new()).collect();
            let weights: Vec<u64> = (0..16u64).map(|i| (i * 7) % 13).collect();
            let stats = PoolStats::default();
            par_for_each_mut_balanced(&mut slots, workers, &weights, Some(&stats), |i, s| {
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
    fn balanced_accounts_steals_when_one_slot_dominates() {
        // One slot sleeps long enough that the other worker must finish
        // its own deque and steal the idle half. The outcome is still
        // exactly-once; only the counters reflect the schedule.
        let mut slots = vec![0u32; 8];
        let weights = [100, 1, 1, 1, 1, 1, 1, 1];
        let stats = PoolStats::default();
        par_for_each_mut_balanced(&mut slots, 2, &weights, Some(&stats), |i, s| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            *s += 1;
        });
        assert_eq!(slots, vec![1; 8]);
        assert_eq!(stats.steal_events() > 0, stats.items_stolen() > 0);
    }

    #[test]
    fn balanced_mismatched_weights_fall_back_to_slot_order() {
        let mut slots = vec![0u64; 5];
        par_for_each_mut_balanced(&mut slots, 3, &[1, 2], None, |i, s| *s = i as u64 + 1);
        assert_eq!(slots, vec![1, 2, 3, 4, 5]);
    }
}
