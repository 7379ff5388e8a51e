//! Model-checked concurrency invariants, run with
//! `cargo test -p dcart-engine --features loom`.
//!
//! The vendored loom explores every (preemption-bounded) thread
//! interleaving of each model, so these tests pin properties that a single
//! lucky schedule under `cargo test` cannot: the pool's exactly-once visit
//! contract (over slot order and over the heaviest-first permutation the
//! executor passes) and panic propagation under arbitrary worker
//! schedules, the commit hand-off releasing every item once, in order,
//! only by a sync begun after it was queued, and the one-job checkpoint
//! hand-off never letting the loop append to a WAL segment a running job
//! still absorbs.
#![cfg(feature = "loom")]

use dcart_engine::{par_for_each_mut, SyncHandoff};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

/// The pool's determinism contract, under every schedule: each slot is
/// handed to `work` exactly once, whichever worker claims it.
#[test]
fn pool_visits_every_slot_exactly_once_in_all_schedules() {
    loom::model(|| {
        let mut slots = vec![0u32; 3];
        par_for_each_mut(&mut slots, 2, |i, s| {
            // `+=` (not `=`) so a double visit would be visible as i+1 extra.
            *s += i as u32 + 1;
        });
        assert_eq!(slots, vec![1, 2, 3]);
    });
}

/// A panicking worker must propagate out of `par_for_each_mut` (via the
/// scope join) in every schedule, and must never cause a sibling worker to
/// run a slot twice — siblings either finish their claimed slots or bail
/// out on the poisoned cell lock.
#[test]
fn pool_propagates_worker_panic_in_all_schedules() {
    // Each exploding execution prints a panic report; hundreds of schedules
    // would flood the log, so silence the hook for the duration.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    loom::model(|| {
        let mut slots = vec![0u32; 2];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_each_mut(&mut slots, 2, |i, s| {
                if i == 1 {
                    panic!("worker failure injected by the model");
                }
                *s += 1;
            });
        }));
        assert!(result.is_err(), "the worker panic must reach the caller");
        assert!(slots[0] <= 1, "slot 0 visited at most once even while unwinding");
    });
    std::panic::set_hook(prev_hook);
}

/// The shape the CTT executor passes when it claims heaviest first:
/// `&mut` references to its shards, stably sorted out of slot order by
/// descending weight. Under every schedule each slot is reached exactly
/// once through its reference, whichever position it was moved to and
/// whichever worker claims that position.
#[test]
fn pool_visits_every_permuted_slot_exactly_once_in_all_schedules() {
    loom::model(|| {
        let mut slots = vec![0u32; 3];
        let weights = [1u32, 5, 3];
        let mut order: Vec<(usize, &mut u32)> = slots.iter_mut().enumerate().collect();
        order.sort_by_key(|&(i, _)| std::cmp::Reverse(weights[i]));
        assert_eq!(order.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![1, 2, 0]);
        par_for_each_mut(&mut order, 2, |_, (i, s)| {
            // `+=` (not `=`) so a double visit would be visible as i+1 extra.
            **s += *i as u32 + 1;
        });
        assert_eq!(slots, vec![1, 2, 3]);
    });
}

/// What the hand-off model keeps beside the hand-off, under the same lock
/// — an account of it made from outside.
struct CommitModel {
    /// Items are `(id, syncs begun when it was queued)`.
    handoff: SyncHandoff<(u32, u32)>,
    /// Syncs begun so far; sync `k` is the one that made this `k`.
    begun: u32,
    accepted: Vec<u32>,
    released: Vec<u32>,
}

/// One round of the committer: take everything queued, "fsync" with the
/// lock released, release what was taken, report back.
fn commit_round(model: &Mutex<CommitModel>, disk: &AtomicUsize, taken: &mut Vec<(u32, u32)>) {
    let sync = {
        let mut m = model.lock().expect("no panics in the model");
        if !m.handoff.begin_sync(taken) {
            return;
        }
        m.begun += 1;
        m.begun
    };
    // The sync itself: a decision point outside the lock, so the producer
    // may queue more while it runs.
    disk.fetch_add(1, Ordering::SeqCst);
    let mut m = model.lock().expect("no panics in the model");
    for (id, begun_when_queued) in taken.iter() {
        assert!(*begun_when_queued < sync, "item {id} released by a sync begun before its push");
        m.released.push(*id);
    }
    taken.clear();
    m.handoff.end_sync(taken);
}

/// The commit hand-off (`dcart-server`'s pipelined durable commit) under
/// every producer × committer × waiter schedule: an item is released
/// exactly once, in push order, and only by a sync that began after its
/// push; the bound refuses exactly when it is reached; and `is_idle` is
/// never true while an accepted item is unreleased — queued, or taken by
/// a sync still in flight.
#[test]
fn sync_handoff_releases_each_item_once_in_order_by_a_later_sync() {
    const BOUND: usize = 2;
    loom::model(|| {
        let model = Arc::new(Mutex::new(CommitModel {
            handoff: SyncHandoff::new(BOUND),
            begun: 0,
            accepted: Vec::new(),
            released: Vec::new(),
        }));
        let disk = Arc::new(AtomicUsize::new(0));

        let producer = {
            let model = Arc::clone(&model);
            loom::thread::spawn(move || {
                for id in 0..3u32 {
                    let mut m = model.lock().expect("no panics in the model");
                    let unreleased = m.accepted.len() - m.released.len();
                    let begun = m.begun;
                    match m.handoff.enqueue((id, begun)) {
                        Ok(()) => m.accepted.push(id),
                        // Unreleased items are queued or held by the one
                        // sync in flight; a refusal means BOUND are queued.
                        Err(_) => assert!(unreleased >= BOUND, "refused below the bound"),
                    }
                }
            })
        };
        let committer = {
            let (model, disk) = (Arc::clone(&model), Arc::clone(&disk));
            loom::thread::spawn(move || {
                let mut taken = Vec::new();
                for _ in 0..2 {
                    commit_round(&model, &disk, &mut taken);
                }
            })
        };
        let waiter = {
            let model = Arc::clone(&model);
            loom::thread::spawn(move || {
                let m = model.lock().expect("no panics in the model");
                if m.handoff.is_idle() {
                    assert_eq!(m.released, m.accepted, "idle with an item unreleased");
                }
            })
        };
        producer.join().expect("producer ran to completion");
        committer.join().expect("committer ran to completion");
        waiter.join().expect("waiter ran to completion");

        // Whatever the committer's two rounds left is covered by one more.
        commit_round(&model, &disk, &mut Vec::new());
        let m = model.lock().expect("all users joined");
        assert!(m.handoff.is_idle());
        assert_eq!(m.released, m.accepted, "every accepted item once, in push order");
        assert!(m.accepted.len() >= BOUND, "the first BOUND pushes are never refused");
        assert_eq!(m.begun as usize, disk.load(Ordering::SeqCst));
    });
}

/// What the checkpoint-job model keeps beside the capacity-1 hand-off,
/// under the same lock.
struct JobModel {
    /// Items are `(job id, the WAL segment it retired)`.
    handoff: SyncHandoff<Option<(u32, usize)>>,
    /// Per segment: a job that retired it has not ended yet.
    absorbing: [bool; 2],
    accepted: Vec<u32>,
    /// Job ids in the order the checkpoint thread ran them.
    ran: Vec<u32>,
}

/// One round of the checkpoint thread: take the queued job, run it with
/// the lock released, end it.
fn job_round(model: &Mutex<JobModel>, taken: &mut Vec<Option<(u32, usize)>>) {
    if !model.lock().expect("no panics in the model").handoff.begin_sync(taken) {
        return;
    }
    // The job runs here, unlocked: the loop may append to the other
    // segment meanwhile, and finds the hand-off busy.
    let (id, segment) = taken[0].expect("a queued job");
    let mut m = model.lock().expect("no panics in the model");
    assert!(m.absorbing[segment], "job {id} absorbs a segment nobody retired");
    m.ran.push(id);
    m.absorbing[segment] = false;
    m.handoff.end_sync(taken);
}

/// The checkpoint hand-off (`dcart-server`'s off-loop checkpoint) under
/// every loop × checkpoint-thread schedule. At each of three rotations
/// the loop looks at the hand-off: busy — the previous job has not ended —
/// is where the real loop blocks, and the model moves on (loom's
/// scheduler does not leave a spinning thread); idle, it takes the ended
/// job back, retires the segment it appends to into a new job and moves
/// to the other one. A segment is appended to again only after the job
/// that retired it has ended, the bound of one is never exceeded, and
/// every job runs exactly once, in order.
#[test]
fn checkpoint_jobs_run_once_in_order_and_a_segment_is_reused_only_after_its_job() {
    loom::model(|| {
        let model = Arc::new(Mutex::new(JobModel {
            handoff: SyncHandoff::new(1),
            absorbing: [false; 2],
            accepted: Vec::new(),
            ran: Vec::new(),
        }));

        let core = {
            let model = Arc::clone(&model);
            loom::thread::spawn(move || {
                let mut active = 0usize;
                for id in 0..3u32 {
                    let mut m = model.lock().expect("no panics in the model");
                    if !m.handoff.is_idle() {
                        continue;
                    }
                    let _ended = m.handoff.recycled();
                    let (retired, next) = (active, 1 - active);
                    assert!(!m.absorbing[next], "appending to a segment a job still absorbs");
                    m.absorbing[retired] = true;
                    m.handoff.enqueue(Some((id, retired))).expect("idle, so there is room");
                    m.accepted.push(id);
                    active = next;
                }
            })
        };
        let checkpointer = {
            let model = Arc::clone(&model);
            loom::thread::spawn(move || {
                let mut taken = Vec::new();
                for _ in 0..2 {
                    job_round(&model, &mut taken);
                }
            })
        };
        core.join().expect("core loop ran to completion");
        checkpointer.join().expect("checkpoint thread ran to completion");

        // Whatever is still queued runs in one more round.
        job_round(&model, &mut Vec::new());
        let m = model.lock().expect("all users joined");
        assert!(m.handoff.is_idle());
        assert_eq!(m.ran, m.accepted, "every accepted job once, in order");
        assert_eq!(m.accepted.first(), Some(&0), "the first rotation finds the hand-off idle");
        assert_eq!(m.absorbing, [false; 2]);
    });
}
