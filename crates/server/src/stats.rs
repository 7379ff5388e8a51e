//! Observability: the stats snapshot served by the `stats` wire request
//! — queue depth, shed counts and storage traffic, so overload behavior
//! is observable rather than inferred from latency curves.

use dcart_mem::PersistStats;
use serde::Serialize;

use crate::admission::AdmissionCounters;

/// What the core loop has durably done so far, read by connection threads
/// under a mutex. Each counter has one writer, which updates it in place:
/// the loop (`batches`, `ops`, `answer_digest`, `expired_in_queue`, the
/// checkpoint stall, the two WAL gauges, and `persist` but for its two
/// checkpoint counters),
/// the committer's round, which releases the answers — on the committer
/// thread under `ServerCore::run`, on the loop's otherwise —
/// (`acked_writes`, the `commit_sync*` counters), and
/// wherever a checkpoint job ends (the `checkpoint_job*` counters,
/// `persist.checkpoints` and `persist.checkpoint_bytes`).
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct CoreSnapshot {
    /// Coalesced batches executed.
    pub batches: u64,
    /// Operations executed (accepted requests that reached the executor).
    pub ops: u64,
    /// Writes acknowledged (durable in WAL-backed mode): counted when the
    /// answer is released, not when the batch executes.
    pub acked_writes: u64,
    /// Cumulative answer digest — the value a checkpoint written now
    /// would record, and the cross-check for the determinism test.
    pub answer_digest: u64,
    /// Requests that expired waiting in the queue (admitted, never
    /// executed; answered `DeadlineExceeded`).
    pub expired_in_queue: u64,
    /// Batches replayed from the WAL at startup.
    pub replayed_batches: u64,
    /// Storage-traffic accounting (WAL bytes, checkpoints, torn tails).
    pub persist: PersistStats,
    /// Time the loop spent checkpointing instead of serving, summed over
    /// every checkpoint, on the injected clock: the wait for the previous
    /// checkpoint job and for the committer, the capture (the walk that
    /// encodes the file) and the rotation to the other WAL segment. The job itself
    /// is not in it, even where it runs on the loop's thread.
    pub checkpoint_stall_ns_total: u64,
    /// The longest single checkpoint stall.
    pub checkpoint_stall_ns_max: u64,
    /// Time in checkpoint jobs, summed: temp file write and fsync, rename,
    /// directory fsync and the retired segment's reset — on the checkpoint
    /// thread, or inline.
    pub checkpoint_job_ns_total: u64,
    /// The longest single checkpoint job.
    pub checkpoint_job_ns_max: u64,
    /// Commit fsyncs that returned `Ok` (none without a data directory).
    /// `batches ÷ commit_syncs` is the batches one sync covered: 1 under
    /// `ServerCore::flush_now`, more when the committer thread groups them.
    pub commit_syncs: u64,
    /// Time in those fsyncs on the injected clock; the write of each mark
    /// is the loop's, before the sync.
    pub commit_sync_ns_total: u64,
    /// The longest single commit fsync.
    pub commit_sync_ns_max: u64,
    /// Gauge: bytes in the WAL segment appended to — what was logged since
    /// the last checkpoint's rotation, and what a restart now would replay
    /// (0 without a data directory). Updated once per batch.
    pub wal_segment_bytes: u64,
    /// Gauge: the `wal_segment_bytes` at which the next checkpoint is due —
    /// the last checkpoint file's length, 1 MiB at least.
    pub checkpoint_trigger_bytes: u64,
}

/// The full stats answer: admission-side counters plus the core snapshot.
#[derive(Clone, Copy, Default, Debug, Serialize)]
pub struct ServerStats {
    /// Admission counters (accepted/rejected by reason).
    pub admission: AdmissionCounters,
    /// Requests admitted and not yet taken into a batch by the core loop.
    pub queue_depth: u64,
    /// Queue capacity.
    pub queue_capacity: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Core-loop snapshot.
    pub core: CoreSnapshot,
}

impl ServerStats {
    /// Serializes the snapshot as the `stats` response payload.
    pub fn to_json(&self) -> Vec<u8> {
        // A Serialize derive over plain integers/bools cannot fail.
        serde_json::to_string(self).map(String::into_bytes).unwrap_or_default()
    }
}
