//! The coalescing core: one thread that turns queued requests into CTT
//! batches, makes them durable, and answers every submitter.
//!
//! The paper's Combine stage *is* request coalescing — this loop is where
//! the serving layer meets it, and the path into and out of the loop pays
//! its fixed costs per group too. A connection thread hands over every
//! request one `read` brought in through [`ServerShared::submit_group`]:
//! one clock reading (for the deadlines), one hold of the inbox lock while
//! [`Admission::admit`] runs per request in arrival order and the admitted
//! ones are appended, and a wake-up only when the append is to an empty
//! inbox the loop sleeps on. [`ServerShared::submit`] is the group of one.
//! The [`Admission`] state lives under the inbox lock, and the loop
//! releases the slots of the batch it takes under the hold that takes it,
//! so the queue depth is the inbox's length. The only nesting in the crate
//! is [`ServerShared::stats`]' inbox → snapshot. A submitter looks for a
//! dead core and a drain under the inbox lock, so once the loop has seen
//! either and found the inbox empty under that lock, nothing is left to
//! answer.
//!
//! Batches form by load, not by a clock: as soon as the loop is free it
//! takes everything queued, up to the batch-size watermark, so a batch is
//! what arrived while the last one ran — one request under light load, a
//! full watermark under heavy load. The loop sleeps only on an empty
//! inbox, and never longer than the 25 ms `POLL`, so flags stored without
//! the lock are still seen. It runs each batch through the resumable
//! executor seam ([`CttSession`]) and, with a data directory, through the
//! durable log ([`DurableLog`], the one implementation of the
//! WAL/checkpoint protocol the offline executor drives too):
//!
//! 1. append the batch record to the WAL ([`DurableLog::append`]);
//! 2. execute the batch (collecting each op's concrete answer);
//! 3. append the commit mark ([`DurableLog::commit`]), unsynced;
//! 4. only then, once an fsync that *began after* the mark was fully
//!    written has returned — the durability point — send
//!    acknowledgements: each answer goes to its [`Reply`], encoded
//!    straight into the owning connection's outbound buffer, whose writer
//!    is woken once per batch, or sent on an in-process channel.
//!
//! Step 4 is one function, the *committer's round* (DESIGN.md, *Commit
//! pipeline*): take the batches whose marks are written, sync once on a
//! second handle to the segment, answer what was taken, in order. Only
//! where it runs depends on who drives the loop. [`ServerCore::run`] on a
//! durable core hands each batch to a *committer* thread, which takes
//! everything queued per round — so no sync that began before a mark
//! acknowledges it, and one sync releases every mark written while the
//! previous one ran; at most `MAX_UNSYNCED_BATCHES` wait, and a rotation
//! and the end of `run` wait for the committer to go idle.
//! [`ServerCore::flush_now`] — the loop as a deterministic step function
//! — and a core without a data directory run the round on the loop's own
//! thread, over the one batch; without a data directory there is no
//! segment, and the round syncs nothing. Either way a failed sync is
//! final (never retried, everything after it answered `Error`, the core
//! dead), and the WAL bytes are the same.
//!
//! A crash between 1 and 3 loses only *unacknowledged* requests — the
//! chaos cell's invariant. The vectors a flush works in (the drained
//! batch, the ops, the collected answers, the connections to wake) are
//! kept across flushes; those handed to the committer come back emptied.
//!
//! Checkpoints are split the same way — whenever the log says one is
//! [due](DurableLog::checkpoint_due) (by default once the WAL segment has
//! grown as large as the last checkpoint file; at most every
//! [`ServerConfig::checkpoint_every`] batches), at drain, and at an open
//! that finds batches in both WAL segments. What a checkpoint does is the
//! log's; where it happens is this module's. The loop waits for the
//! previous checkpoint job to end (one in flight) and for the committer
//! to go idle, then [rotates](DurableLog::rotate) the log — a capture of
//! what the checkpoint needs from the session, and appends moved to the
//! spare segment — and hands the job over. The **job** — on a checkpoint
//! thread [`ServerCore::run`] spawns beside the committer, or inline on
//! the calling thread for `flush_now`, the drain and the open — installs
//! the checkpoint and only then truncates the retired segment. The
//! checkpoint crash sites fire where the job runs, on an injector of its
//! own built from the same plan. A failed job kills the core; the old
//! checkpoint and both segments still hold every acknowledged batch.
//!
//! The two side threads are one mechanism, a `Lane`: a [`SyncHandoff`]
//! under a mutex, to which the loop hands entries — blocking at the
//! bound — and from which the thread takes everything queued at once,
//! runs its body over it and gives it back for reuse. The committer's
//! lane holds `MAX_UNSYNCED_BATCHES` batches and its body is the round;
//! the checkpoint thread's holds one job and its body runs it.
//! A durable core under `run` has both threads, every other core neither.
//! What the loop still pays, and what the job takes, is in
//! [`CoreSnapshot`]; each of its counters is written, in place, by the
//! one thread that counts it.

use std::collections::VecDeque;
use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ScopedJoinHandle;
use std::time::Duration;

use dcart::{
    CheckpointJob, CttConsumer, CttOpEvent, CttSession, DcartConfig, DcartError, DurableLog,
    ExecOpts, Opened,
};
use dcart_art::Key;
use dcart_engine::time::Clock;
use dcart_engine::{wal, CrashInjector, CrashPlan, SyncHandoff};
use dcart_mem::PersistStats;
use dcart_workloads::{Op, OpKind};

use crate::admission::{Admission, AdmissionConfig};
use crate::net::Outbox;
use crate::stats::{CoreSnapshot, ServerStats};
use crate::wire::{Request, RequestKind, Response};

/// The longest any thread of the server sleeps without looking at the
/// shutdown and dead flags: the acceptor between polls, a connection's
/// reader on an idle socket, the core loop on its condvar.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Most batches that wait for the committer with their marks written and
/// not yet synced; the next hand-over blocks. Not a tunable: a closed loop
/// of 256 requests in flight cannot queue more than 4 batches of 64, and a
/// sync covers one or two, so this only caps memory under an open loop.
const MAX_UNSYNCED_BATCHES: usize = 8;

/// An fsync the server issues, given the file to sync: `File::sync_all`,
/// unless a test has put its own in to hold it back or make it fail — the
/// commit sync of the committer's round, on a second handle to the
/// segment being appended to ([`ServerCore::set_commit_sync`]), and the
/// checkpoint job's sync of its temp file
/// ([`ServerCore::set_checkpoint_sync`]).
pub type FileSync = Box<dyn FnMut(&File) -> std::io::Result<()> + Send>;

fn sync_all() -> FileSync {
    Box::new(|file: &File| file.sync_all())
}

/// Everything the server needs to know to run.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Executor configuration (bucket count, shortcuts, split threshold,
    /// and — for server-side chaos — the fault plan in `dcart.faults`).
    pub dcart: DcartConfig,
    /// SOU worker threads for the shard pool.
    pub threads: usize,
    /// Whether the shard pool's workers claim a batch's shards heaviest
    /// first (see [`ExecOpts::steal`]).
    pub steal: bool,
    /// Watermark: the most requests one batch takes from the inbox. Also
    /// the nominal batch size seeding the split policy.
    pub batch_size: usize,
    /// Durability directory; `None` serves from memory only (acks then
    /// mean "executed", not "durable"). With one, a batch is acknowledged
    /// only once an fsync covers its commit mark.
    pub data_dir: Option<PathBuf>,
    /// At most this many batches between checkpoints; by default
    /// (`u64::MAX`) only the log's size decides: a checkpoint follows once
    /// the WAL segment has grown as large as the last checkpoint file, and
    /// 1 MiB at least ([`DurableLog::checkpoint_due`]).
    pub checkpoint_every: u64,
    /// Admission tunables.
    pub admission: AdmissionConfig,
    /// Planned durability-layer crash (chaos cell); `None` in production.
    pub crash: Option<CrashPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            dcart: DcartConfig::default(),
            threads: 1,
            steal: false,
            batch_size: 64,
            data_dir: None,
            checkpoint_every: u64::MAX,
            admission: AdmissionConfig::default(),
            crash: None,
        }
    }
}

/// Where an admitted request's answer goes.
pub enum Reply {
    /// An in-process submitter: tests, the benchmark's pipeline probe.
    Channel(Sender<Response>),
    /// A TCP connection: the answer is encoded into its outbound buffer.
    Conn(Arc<Outbox>),
}

impl Reply {
    /// Delivers `resp`. A connection whose writer has to be told about it
    /// is added to `wake`, for one wake-up when the caller is done with
    /// its batch. A submitter that has gone away is not an error.
    fn deliver(&self, resp: Response, wake: &mut Vec<Arc<Outbox>>) {
        match self {
            Reply::Channel(tx) => drop(tx.send(resp)),
            Reply::Conn(outbox) => {
                if outbox.push_answer(&resp) {
                    wake.push(Arc::clone(outbox));
                }
            }
        }
    }
}

/// An admitted request waiting in the inbox.
struct PendingReq {
    req: Request,
    /// Absolute deadline (clock origin), already clamped by admission.
    deadline_ns: u64,
    /// Where the answer goes.
    resp: Reply,
}

/// The admitted requests in arrival order, the admission state that
/// decides what enters, and whether the core loop waits for an append.
struct Inbox {
    queue: VecDeque<PendingReq>,
    /// Its depth is `queue`'s length: a slot is taken where a request is
    /// appended and released where the loop takes it.
    admission: Admission,
    /// The loop sleeps on the empty inbox and no append has woken it yet.
    asleep: bool,
}

/// State shared between connection threads and the core loop.
pub struct ServerShared {
    inbox: Mutex<Inbox>,
    cond: Condvar,
    snapshot: Mutex<CoreSnapshot>,
    shutdown: AtomicBool,
    dead: AtomicBool,
    clock: Arc<dyn Clock>,
}

impl ServerShared {
    /// Fresh shared state around `clock`.
    pub fn new(admission: AdmissionConfig, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(ServerShared {
            inbox: Mutex::new(Inbox {
                queue: VecDeque::new(),
                admission: Admission::new(admission),
                asleep: false,
            }),
            cond: Condvar::new(),
            snapshot: Mutex::new(CoreSnapshot::default()),
            shutdown: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            clock,
        })
    }

    /// The injected clock's current instant.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Submits one decoded request. `None` means the request was admitted
    /// and its answer will arrive on `resp`; `Some` is an immediate
    /// response (rejection, stats, shutdown ack, or server-dead error).
    /// This is [`ServerShared::submit_group`] for a group of one.
    pub fn submit(&self, req: Request, resp: &Sender<Response>) -> Option<Response> {
        let mut immediate = Vec::new();
        self.submit_group(&[req], || Reply::Channel(resp.clone()), &mut immediate);
        immediate.pop()
    }

    /// Submits the requests one `read` brought in, in arrival order. Each
    /// admitted request will be answered through a `reply()` of its own;
    /// every other one is answered at once, into `immediate`, in order:
    /// rejections, `stats`, the `shutdown` ack, server-dead errors.
    ///
    /// A run of operations costs one reading of the clock, one hold of the
    /// inbox lock and at most one wake-up of the core loop. A `stats` or
    /// `shutdown` request in the middle ends the run in front of it, so it
    /// sees exactly the admissions that arrived before it.
    pub fn submit_group(
        &self,
        reqs: &[Request],
        reply: impl Fn() -> Reply,
        immediate: &mut Vec<Response>,
    ) {
        let is_op = |r: &Request| !matches!(r.kind, RequestKind::Stats | RequestKind::Shutdown);
        let mut rest = reqs;
        while !rest.is_empty() {
            let (ops, tail) =
                rest.split_at(rest.iter().position(|r| !is_op(r)).unwrap_or(rest.len()));
            if !ops.is_empty() {
                self.admit_ops(ops, &reply, immediate);
            }
            rest = tail;
            if let Some((control, tail)) = rest.split_first() {
                let mut r = Response::ok(control.req_id, None);
                if control.kind == RequestKind::Stats {
                    r.payload = self.stats().to_json();
                } else {
                    self.request_shutdown();
                }
                immediate.push(r);
                rest = tail;
            }
        }
    }

    /// The admission body: `ops` (no `stats`, no `shutdown`) are decided
    /// in order, and the admitted ones appended to the inbox, under one
    /// hold of its lock.
    fn admit_ops(
        &self,
        ops: &[Request],
        reply: &impl Fn() -> Reply,
        immediate: &mut Vec<Response>,
    ) {
        let now = self.now_ns();
        let wake = {
            let mut inbox = self.inbox.lock().unwrap_or_else(|e| e.into_inner());
            // Under the lock: a core that died before the loop last looked
            // at the inbox admits nothing more.
            if self.is_dead() {
                immediate.extend(ops.iter().map(|req| Response::error(req.req_id)));
                return;
            }
            let Inbox { queue, admission, asleep } = &mut *inbox;
            for req in ops {
                let deadline_ns = now.saturating_add(admission.effective_budget_ns(req.budget_ns));
                match admission.admit(req.kind, now, deadline_ns) {
                    Ok(()) => queue.push_back(PendingReq { req: *req, deadline_ns, resp: reply() }),
                    Err((reason, retry)) => {
                        immediate.push(Response::rejected(req.req_id, reason, retry));
                    }
                }
            }
            // The loop sleeps only on an empty inbox: one wake-up for the
            // first append, none for those that follow before it runs.
            let wake = *asleep && !queue.is_empty();
            if wake {
                *asleep = false;
            }
            wake
        };
        if wake {
            self.cond.notify_one();
        }
    }

    /// Initiates graceful drain: admission bounces new work, the acceptor
    /// stops, the core flushes what is queued and checkpoints.
    pub fn request_shutdown(&self) {
        self.inbox.lock().unwrap_or_else(|e| e.into_inner()).admission.start_drain();
        self.shutdown.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    /// Whether drain has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether the core died (durability failure / injected crash): the
    /// server can no longer make progress and answers errors.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Assembles the full stats snapshot (admission + core). The snapshot
    /// is read under the inbox lock, so it counts no request admission
    /// has not.
    pub fn stats(&self) -> ServerStats {
        let inbox = self.inbox.lock().unwrap_or_else(|e| e.into_inner());
        let core = *self.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        let adm = &inbox.admission;
        // `deadline_exceeded` counts expiries at admission and in the queue.
        let mut admission = adm.counters();
        admission.deadline_exceeded += core.expired_in_queue;
        ServerStats {
            admission,
            queue_depth: adm.queue_depth(),
            queue_capacity: adm.queue_capacity(),
            draining: adm.is_draining(),
            core,
        }
    }

    fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
        self.cond.notify_all();
    }
}

/// Collects each operation's concrete answer during a batch, indexed by
/// the op's position in the batch slice (events arrive in round-robin
/// bucket order, not submission order).
struct ValueCollector<'a> {
    values: &'a mut [Option<u64>],
}

impl CttConsumer for ValueCollector<'_> {
    fn op(&mut self, ev: &CttOpEvent<'_>) {
        if let Some(slot) = self.values.get_mut(ev.op_index as usize) {
            *slot = ev.value;
        }
    }
}

fn op_of(req: &Request) -> Op {
    let kind = match req.kind {
        RequestKind::Get => OpKind::Read,
        RequestKind::Insert => OpKind::Insert,
        RequestKind::Remove => OpKind::Remove,
        RequestKind::Scan => OpKind::Scan,
        // Stats/shutdown never reach the inbox (answered at submit).
        RequestKind::Stats | RequestKind::Shutdown => OpKind::Read,
    };
    Op { kind, key: Key::from_u64(req.key), value: req.value }
}

/// Moves the next batch — the oldest requests, up to the watermark — out
/// of the inbox, and releases their admission slots.
fn take_batch(inbox: &mut Inbox, watermark: usize, batch: &mut Vec<PendingReq>) {
    let take = inbox.queue.len().min(watermark);
    batch.extend(inbox.queue.drain(..take));
    inbox.admission.release(take as u64);
}

/// The one wake-up per batch that [`Reply::deliver`] left owing.
fn wake_writers(wake: &mut Vec<Arc<Outbox>>) {
    for outbox in wake.drain(..) {
        outbox.wake_writer();
    }
}

/// A batch between its commit mark and its acknowledgement.
#[derive(Default)]
struct Handed {
    /// The requests drained from the inbox; after the deadline check, the
    /// live ones.
    live: Vec<PendingReq>,
    /// Each live request's answer, by position.
    values: Vec<Option<u64>>,
    /// On the first batch after the open or a rotation: a handle to the
    /// segment its mark is in, which the committer syncs from then on.
    segment: Option<File>,
}

/// Answers `Error` to every request of a batch whose outcome is void.
fn refuse(live: &[PendingReq], wake: &mut Vec<Arc<Outbox>>) {
    for p in live {
        p.resp.deliver(Response::error(p.req.req_id), wake);
    }
}

/// A side thread of [`ServerCore::run`] and the loop's way to it: a
/// [`SyncHandoff`] under a mutex, and what each side sleeps on. The loop
/// hands entries over; the thread takes everything queued at once, runs
/// its body over it, and gives the entries back for reuse. The committer
/// is one lane, the checkpoint thread another.
struct Lane<T> {
    state: Mutex<LaneState<T>>,
    /// The thread's: an entry was handed over, or the lane closed.
    queued: Condvar,
    /// The loop's: the thread took what was queued (room), or ended a
    /// round (idle, perhaps).
    progress: Condvar,
}

struct LaneState<T> {
    handoff: SyncHandoff<T>,
    /// The loop has ended: the thread leaves once nothing is queued.
    closed: bool,
}

impl<T: Default> Lane<T> {
    /// An idle lane that queues at most `bound` entries.
    fn new(bound: usize) -> Self {
        Lane {
            state: Mutex::new(LaneState { handoff: SyncHandoff::new(bound), closed: false }),
            queued: Condvar::new(),
            progress: Condvar::new(),
        }
    }

    /// Queues what `entry` holds for the thread, and leaves an entry the
    /// thread gave back in its place (a default one if there is none).
    /// Blocks while `bound` entries are queued.
    fn hand_over(&self, entry: &mut T) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut queued = std::mem::replace(entry, state.handoff.recycled());
        while let Err(back) = state.handoff.enqueue(queued) {
            queued = back;
            state = self.progress.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        self.queued.notify_one();
    }

    /// Blocks until nothing is queued and no round is running: the
    /// thread's body has run over everything handed over so far.
    fn wait_idle(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !state.handoff.is_idle() {
            state = self.progress.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// [`Lane::wait_idle`], then an entry the thread gave back, as its
    /// body left it — on the checkpoint lane, the job that ended last
    /// (`None` when there is none left to collect).
    fn take_back(&self) -> T {
        self.wait_idle();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.handoff.recycled()
    }

    /// No entry will follow. Also runs when the loop unwinds, so that the
    /// scope joining the thread ends in that panic, not in a hang.
    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.queued.notify_one();
    }

    /// The thread: until the lane is closed and empty, take everything
    /// queued, run `body` over it, give it back.
    fn take_and_run(&self, mut body: impl FnMut(&mut [T])) {
        let mut taken = Vec::new();
        loop {
            {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                while !state.handoff.begin_sync(&mut taken) {
                    if state.closed {
                        return;
                    }
                    state = self.queued.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
            self.progress.notify_one();
            body(&mut taken);
            self.state.lock().unwrap_or_else(|e| e.into_inner()).handoff.end_sync(&mut taken);
            self.progress.notify_one();
        }
    }
}

/// What the committer's round keeps from one round to the next: the
/// core's, lent to the committer thread while [`ServerCore::run`] runs a
/// durable core.
struct Committer {
    /// The commit fsync.
    sync: FileSync,
    /// A handle to the segment the loop appends to; none on a core
    /// without a data directory, which syncs nothing.
    segment: Option<File>,
    /// The failure that ended the sync's use, if one did.
    failure: Option<std::io::Error>,
    wake: Vec<Arc<Outbox>>,
}

impl Default for Committer {
    fn default() -> Self {
        Committer { sync: sync_all(), segment: None, failure: None, wake: Vec::new() }
    }
}

/// The committer's round over the batches it took at once — on the
/// committer thread, or on the loop's own with the one batch it ran: sync
/// once, then answer every batch taken, in order. Every answer to an
/// executed batch leaves here. The batches were taken before the sync is
/// called, and each was handed over after its mark's write returned: the
/// sync began after every mark it is about to acknowledge.
fn sync_and_answer(committer: &mut Committer, shared: &ServerShared, taken: &mut [Handed]) {
    let Committer { sync: commit_sync, segment, failure, wake } = committer;
    // The loop rotates only while the committer is idle, so the batches
    // of one round are in one segment; the first after the open or a
    // rotation brings the segment's handle.
    if let Some(file) = taken.iter_mut().find_map(|h| h.segment.take()) {
        *segment = Some(file);
    }
    // The sync. None without a segment; a failed one is final: what the
    // file holds is unknown from then on (a second fsync may well return
    // `Ok` over pages the kernel already dropped), so it is never called
    // again — these batches and every later one are answered `Error`, and
    // the core is dead.
    let mut sync_ns = None;
    if let (None, Some(file)) = (&failure, &segment) {
        let started = shared.now_ns();
        match commit_sync(file) {
            Ok(()) => sync_ns = Some(shared.now_ns().saturating_sub(started)),
            Err(e) => {
                *failure = Some(e);
                shared.mark_dead();
            }
        }
    }
    // The answers. The counters are published first, so whoever has its
    // answer finds itself counted, and each touched connection is woken
    // once.
    if failure.is_none() {
        {
            let writes = taken.iter().flat_map(|h| &h.live).filter(|p| p.req.kind.is_write());
            let mut snap = shared.snapshot.lock().unwrap_or_else(|e| e.into_inner());
            snap.acked_writes += writes.count() as u64;
            if let Some(ns) = sync_ns {
                snap.commit_syncs += 1;
                snap.commit_sync_ns_total += ns;
                snap.commit_sync_ns_max = snap.commit_sync_ns_max.max(ns);
            }
        }
        for h in taken.iter() {
            for (p, value) in h.live.iter().zip(&h.values) {
                p.resp.deliver(Response::ok(p.req.req_id, *value), wake);
            }
        }
    } else {
        taken.iter().for_each(|h| refuse(&h.live, wake));
    }
    wake_writers(wake);
    for h in taken {
        h.live.clear();
        h.values.clear();
    }
}

/// What the checkpoint job brings to every run, wherever it runs: its own
/// crash injector — the checkpoint sites fire on the job's thread, and an
/// injector counts per site, so one built from the same plan fires at the
/// same opportunity — and the fsync of the temp file.
struct JobCtx {
    crash: CrashInjector,
    sync: FileSync,
}

/// The checkpoint job — the checkpoint thread's body, or inline: install,
/// reset the retired segment — [`CheckpointJob::run`] — then publish what
/// it did and, on any failure, mark the core dead. The outcome stays with
/// the job, for [`DurableLog::finish`] to return.
fn run_job(checkpoint: &mut CheckpointJob, ctx: &mut JobCtx, shared: &ServerShared) {
    let started = shared.now_ns();
    let mut persist = PersistStats::default();
    let result = checkpoint.run(&mut *ctx.sync, &mut ctx.crash, &mut persist);
    let ns = shared.now_ns().saturating_sub(started);
    {
        let mut snap = shared.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        snap.persist.checkpoints += persist.checkpoints;
        snap.persist.checkpoint_bytes += persist.checkpoint_bytes;
        snap.checkpoint_job_ns_total += ns;
        snap.checkpoint_job_ns_max = snap.checkpoint_job_ns_max.max(ns);
    }
    if result.is_err() {
        shared.mark_dead();
    }
}

/// The lanes to the side threads while [`ServerCore::run`] runs a durable
/// core.
#[derive(Clone, Copy)]
struct Lanes<'a> {
    commits: &'a Lane<Handed>,
    checkpoints: &'a Lane<Option<CheckpointJob>>,
}

/// Closes the lanes when the loop's part of [`ServerCore::run`] ends, by
/// return or by panic.
struct CloseOnDrop<'a>(Option<Lanes<'a>>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(lanes) = self.0 {
            lanes.commits.close();
            lanes.checkpoints.close();
        }
    }
}

/// Joins a side thread, passing its panic on.
fn joined<T>(thread: ScopedJoinHandle<'_, T>) -> T {
    thread.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The core loop's owned state: session, log, crash injector, scratch.
pub struct ServerCore {
    shared: Arc<ServerShared>,
    config: ServerConfig,
    session: CttSession,
    /// Present exactly when there is a data directory.
    log: Option<DurableLog>,
    /// The injector of the WAL's crash sites; the checkpoint's are the
    /// job's.
    crash: CrashInjector,
    /// Present when there is a data directory, and not on the checkpoint
    /// thread.
    job_ctx: Option<JobCtx>,
    /// The committer's round state; a default one while the committer
    /// thread has it.
    committer: Committer,
    /// A handle to the segment the loop appends to since the open or its
    /// last rotation, for the committer; the next batch carries it.
    next_segment: Option<File>,
    /// First durability failure, kept for the report.
    error: Option<DcartError>,
    /// The vectors a flush works in, kept for their capacity.
    scratch: FlushScratch,
}

/// What one flush fills and empties again.
#[derive(Default)]
struct FlushScratch {
    /// The batch being flushed and its answers.
    handed: Handed,
    ops: Vec<Op>,
    /// Connections that got an answer and whose writer is owed a wake-up.
    wake: Vec<Arc<Outbox>>,
}

impl ServerCore {
    /// Opens the serving state: recovers from `data_dir` through
    /// [`DurableLog::open`], or seeds a fresh session from
    /// `initial_pairs`. The checkpoint an open asks for to absorb a spare
    /// segment that holds batches runs here, inline, before anything is
    /// served.
    ///
    /// # Errors
    ///
    /// I/O failures, corrupt durable state, or a replay digest mismatch.
    pub fn open(
        config: ServerConfig,
        shared: Arc<ServerShared>,
        initial_pairs: &[(Key, u64)],
    ) -> Result<Self, DcartError> {
        let opts = ExecOpts { threads: config.threads, steal: config.steal, ..ExecOpts::default() };
        let (dcart, batch_size) = (&config.dcart, config.batch_size);
        let (session, log, absorb) = match &config.data_dir {
            None => {
                (CttSession::from_pairs(initial_pairs, dcart, &opts, batch_size, 0)?, None, None)
            }
            Some(dir) => {
                let Opened { log, session, absorb, .. } =
                    DurableLog::open(dir, initial_pairs, dcart, &opts, batch_size)?;
                (session, Some(log), absorb)
            }
        };
        let replayed = log.as_ref().map_or(0, |log| log.persist().replayed_batches);
        *shared.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = CoreSnapshot {
            replayed_batches: replayed,
            batches: replayed,
            answer_digest: session.answer_digest(),
            wal_segment_bytes: log.as_ref().map_or(0, DurableLog::segment_bytes),
            checkpoint_trigger_bytes: log.as_ref().map_or(0, DurableLog::checkpoint_trigger_bytes),
            ..CoreSnapshot::default()
        };
        let next_segment = log.as_ref().map(DurableLog::sync_handle).transpose()?;
        let crash = || match config.crash {
            Some(plan) => CrashInjector::for_plan(plan),
            None => CrashInjector::counting(),
        };
        let mut core = ServerCore {
            crash: crash(),
            job_ctx: log.is_some().then(|| JobCtx { crash: crash(), sync: sync_all() }),
            committer: Committer::default(),
            next_segment,
            shared,
            config,
            session,
            log,
            error: None,
            scratch: FlushScratch::default(),
        };
        if let Some(checkpoint) = absorb {
            core.run_inline(checkpoint)?;
        }
        Ok(core)
    }

    /// Replaces the commit fsync, on whichever thread the committer's
    /// round runs — the seam through which tests hold a sync back or make
    /// it fail without a failing disk. A core without a data directory
    /// never calls it.
    // dcart_lint::allow(U1) -- fault-injection seam: tests hold back or fail the commit fsync
    pub fn set_commit_sync(&mut self, sync: FileSync) {
        self.committer.sync = sync;
    }

    /// Replaces the fsync of the checkpoint's temp file, wherever the job
    /// runs — the seam through which tests hold a checkpoint job back in
    /// the middle of its install or make the install fail. Nothing
    /// happens on a core without a data directory.
    // dcart_lint::allow(U1) -- fault-injection seam: tests hold back or fail the checkpoint fsync
    pub fn set_checkpoint_sync(&mut self, sync: FileSync) {
        if let Some(ctx) = &mut self.job_ctx {
            ctx.sync = sync;
        }
    }

    /// The blocking core loop: coalesce, flush, repeat — until drain
    /// completes or the durability layer dies. Returns the first
    /// durability error, if any (injected crashes land here too).
    ///
    /// On a durable core the loop runs beside a committer and a checkpoint
    /// thread; both are spawned here, from the core's own thread, and
    /// joined before the drain checkpoint.
    pub fn run(&mut self) -> Option<DcartError> {
        let sides = self.job_ctx.take().map(|ctx| (std::mem::take(&mut self.committer), ctx));
        let (commits, checkpoints) = (Lane::new(MAX_UNSYNCED_BATCHES), Lane::new(1));
        let lanes =
            sides.is_some().then_some(Lanes { commits: &commits, checkpoints: &checkpoints });
        let shared = Arc::clone(&self.shared);
        let ended = std::thread::scope(|scope| {
            let threads = sides.map(|(mut committer, mut ctx)| {
                let (commits, checkpoints, shared) = (&commits, &checkpoints, &shared);
                let committer = scope.spawn(move || {
                    commits.take_and_run(|taken| sync_and_answer(&mut committer, shared, taken));
                    committer
                });
                let checkpointer = scope.spawn(move || {
                    checkpoints.take_and_run(|taken| {
                        taken.iter_mut().flatten().for_each(|job| run_job(job, &mut ctx, shared));
                    });
                    ctx
                });
                (committer, checkpointer)
            });
            {
                let _close = CloseOnDrop(lanes);
                self.serve(lanes);
            }
            threads.map(|(committer, checkpointer)| (joined(committer), joined(checkpointer)))
        });
        if let Some((committer, ctx)) = ended {
            self.committer = committer;
            self.job_ctx = Some(ctx);
        }
        if let Some(e) = self.committer.failure.take() {
            self.error.get_or_insert(wal::WalError::Io(e).into());
        }
        // The job that ended last, then — drain complete — a final
        // checkpoint, so that restart needs no replay.
        let last = match (&mut self.log, checkpoints.take_back()) {
            (Some(log), Some(job)) => log.finish(job),
            _ => Ok(()),
        };
        if let Err(e) = last.and_then(|()| self.checkpoint(true, None)) {
            self.error.get_or_insert(e);
        }
        self.error.take()
    }

    /// [`ServerCore::run`]'s loop; with `lanes`, batches are handed to
    /// the committer thread instead of going through the committer's round
    /// here, and checkpoint jobs to the checkpoint thread.
    fn serve(&mut self, lanes: Option<Lanes<'_>>) {
        let watermark = self.config.batch_size;
        loop {
            {
                let shared = &self.shared;
                let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
                // Take what is queued at once; sleep only on an empty
                // inbox, until an append wakes the loop. A dead core still
                // drains the inbox below, so every queued submitter gets
                // an error, and then stops, as a drain does.
                while inbox.queue.is_empty() && !shared.is_dead() && !shared.is_shutdown() {
                    inbox.asleep = true;
                    let (guard, _) =
                        shared.cond.wait_timeout(inbox, POLL).unwrap_or_else(|e| e.into_inner());
                    inbox = guard;
                    inbox.asleep = false;
                }
                take_batch(&mut inbox, watermark, &mut self.scratch.handed.live);
            }
            if self.scratch.handed.live.is_empty() {
                // Only a drain or a dead core ends the wait on an empty
                // inbox, and under the lock that found it empty: every
                // later submitter is bounced, so nothing is left.
                break;
            }
            self.execute(lanes);
        }
    }

    /// Flushes up to one batch immediately, bypassing the wait loop —
    /// the deterministic test hook. The committer's round syncs and
    /// answers the batch on this thread, before this returns, and a
    /// checkpoint it triggers is installed here too.
    pub fn flush_now(&mut self) {
        {
            let mut inbox = self.shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
            take_batch(&mut inbox, self.config.batch_size, &mut self.scratch.handed.live);
        }
        if !self.scratch.handed.live.is_empty() {
            self.execute(None);
        }
    }

    /// The cumulative answer digest (for tests and reports).
    pub fn answer_digest(&self) -> u64 {
        self.session.answer_digest()
    }

    /// Consumes the core and returns the final merged tree digest.
    ///
    /// # Errors
    ///
    /// [`DcartError::Art`] if the final shard merge fails.
    pub fn into_tree_digest(self) -> Result<u64, DcartError> {
        let (tree, _, _) = self.session.finish()?;
        Ok(dcart::tree_digest(&tree))
    }

    /// Executes the batch in `scratch.handed` and sees to it that every
    /// request in it is answered: by the committer's round once a sync
    /// covers the batch's mark — here, or on the committer thread — or
    /// here on a way out that executes nothing.
    fn execute(&mut self, lanes: Option<Lanes<'_>>) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.execute_in(&mut scratch, lanes);
        // Whoever was answered on a way out other than stage 4.
        wake_writers(&mut scratch.wake);
        scratch.handed.live.clear();
        scratch.ops.clear();
        self.scratch = scratch;
    }

    fn execute_in(&mut self, scratch: &mut FlushScratch, lanes: Option<Lanes<'_>>) {
        let FlushScratch { handed, ops, wake } = scratch;
        let Handed { live, values, .. } = &mut *handed;
        let now = self.shared.now_ns();
        // Expired-in-queue requests are answered without executing: their
        // submitter stopped waiting, and running them anyway would spend
        // capacity the deadline already wrote off.
        let taken = live.len() as u64;
        live.retain(|p| {
            let alive = p.deadline_ns > now;
            if !alive {
                let expired = dcart_engine::RejectReason::DeadlineExceeded;
                p.resp.deliver(Response::rejected(p.req.req_id, expired, 0), wake);
            }
            alive
        });
        let expired = taken - live.len() as u64;
        if expired > 0 {
            self.publish(|snap| snap.expired_in_queue += expired);
        }
        let commits = lanes.map(|lanes| lanes.commits);
        if self.shared.is_dead() {
            return self.refuse_after_queued(live, wake, commits);
        }
        if live.is_empty() {
            return;
        }

        ops.extend(live.iter().map(|p| op_of(&p.req)));

        // 1. WAL the batch before any effect becomes visible.
        if let Some(log) = &mut self.log {
            if let Err(e) = log.append(ops, &mut self.crash) {
                return self.die(live, wake, commits, e);
            }
        }

        // 2. Execute, collecting each op's concrete answer.
        values.clear();
        values.resize(ops.len(), None);
        if let Err(e) = self.session.execute_batch(ops, &mut ValueCollector { values }) {
            // With fixed-width wire keys this cannot be a prefix
            // violation; anything here means the session is torn.
            return self.die(live, wake, commits, e);
        }

        // 3. Commit mark, written and not synced: the sync of the round
        // that answers the batch is the durability point. An injected
        // crash here is the chaos cell's kill — the batch was executed but
        // never acknowledged, and recovery must not surface it.
        let digest = self.session.answer_digest();
        if let Some(log) = &mut self.log {
            if let Err(e) = log.commit(digest, ops.len() as u32, false, &mut self.crash) {
                return self.die(live, wake, commits, e);
            }
        }
        // Counted before any of its answers can leave: once handed over,
        // the committer may answer the batch at any moment.
        self.publish(|snap| {
            snap.batches += 1;
            snap.ops += ops.len() as u64;
            snap.answer_digest = digest;
        });

        // 4. Acknowledge. The committer's round answers the batch — on its
        // thread, or right here over this one batch — once a sync that
        // began after this point has returned. An answer to a connection
        // is encoded into that connection's outbound buffer, and each
        // touched connection's writer is woken once, after the round's
        // last answer.
        handed.segment = self.next_segment.take();
        match commits {
            Some(commits) => commits.hand_over(handed),
            None => {
                sync_and_answer(&mut self.committer, &self.shared, std::slice::from_mut(handed))
            }
        }

        let every = self.config.checkpoint_every;
        if self.log.as_ref().is_some_and(|log| log.checkpoint_due(every)) {
            if let Err(e) = self.checkpoint(false, lanes) {
                self.error.get_or_insert(e);
                self.shared.mark_dead();
            }
        }
    }

    /// Publishes what the loop counts, under one hold of the snapshot
    /// lock: `count` updates the loop's counters in place, and the log's
    /// traffic and gauges replace their published copies — all but
    /// `persist.checkpoints` and `persist.checkpoint_bytes`, which
    /// [`run_job`] adds to where the job runs, as [`sync_and_answer`]
    /// counts the answers and syncs.
    fn publish(&self, count: impl FnOnce(&mut CoreSnapshot)) {
        let mut snap = self.shared.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        count(&mut snap);
        if let Some(log) = &self.log {
            let job = snap.persist;
            snap.persist = PersistStats {
                checkpoints: job.checkpoints,
                checkpoint_bytes: job.checkpoint_bytes,
                ..*log.persist()
            };
            snap.wal_segment_bytes = log.segment_bytes();
            snap.checkpoint_trigger_bytes = log.checkpoint_trigger_bytes();
        }
    }

    /// The loop's half of a checkpoint: wait for the previous job to end
    /// (its segment is the spare again) and for the committer to go idle,
    /// rotate the log, and hand the job to the checkpoint thread or run it
    /// here. That much, on the injected clock, is the loop's stall. At
    /// `drain` it is skipped when the installed checkpoint already stands
    /// for every committed batch. A dead core checkpoints nothing: a
    /// failed sync or job must leave the old checkpoint and both segments
    /// as they are.
    fn checkpoint(&mut self, drain: bool, lanes: Option<Lanes<'_>>) -> Result<(), DcartError> {
        let started = self.shared.now_ns();
        if let Some(lanes) = lanes {
            if let (Some(log), Some(job)) = (&mut self.log, lanes.checkpoints.take_back()) {
                log.finish(job)?;
            }
            lanes.commits.wait_idle();
        }
        if self.shared.is_dead() {
            return Ok(());
        }
        let Some(log) = &mut self.log else { return Ok(()) };
        if drain && log.checkpointed() {
            return Ok(());
        }
        // Capture and rotate: the loop appends to the spare from here on,
        // and the old segment goes with the job, which empties it once the
        // checkpoint that absorbs it is installed. The committer, idle
        // now, syncs the new segment from the next batch on.
        let job = log.rotate(&self.session)?;
        self.next_segment = Some(log.sync_handle()?);
        let stall = self.shared.now_ns().saturating_sub(started);
        self.publish(|snap| {
            snap.checkpoint_stall_ns_total += stall;
            snap.checkpoint_stall_ns_max = snap.checkpoint_stall_ns_max.max(stall);
        });
        match lanes {
            Some(lanes) => {
                lanes.checkpoints.hand_over(&mut Some(job));
                Ok(())
            }
            None => self.run_inline(job),
        }
    }

    /// Runs a checkpoint job on the calling thread and hands it back to
    /// the log, which returns its outcome.
    fn run_inline(&mut self, mut job: CheckpointJob) -> Result<(), DcartError> {
        let (Some(ctx), Some(log)) = (&mut self.job_ctx, &mut self.log) else {
            return Err(DcartError::Recovery("checkpoint job state is away".into()));
        };
        run_job(&mut job, ctx, &self.shared);
        log.finish(job)
    }

    /// Durability failed mid-batch: answer errors (the batch was never
    /// acknowledged, so clients know its outcome is void), latch the
    /// error, and mark the server dead.
    fn die(
        &mut self,
        live: &[PendingReq],
        wake: &mut Vec<Arc<Outbox>>,
        commits: Option<&Lane<Handed>>,
        e: DcartError,
    ) {
        self.error.get_or_insert(e);
        self.shared.mark_dead();
        self.refuse_after_queued(live, wake, commits);
    }

    /// Answers `Error` to a batch that will not run — behind the answers
    /// of the batches already handed over, whose marks are written and
    /// which the committer syncs and acknowledges as usual, so that a
    /// connection's answers stay in batch order.
    fn refuse_after_queued(
        &self,
        live: &[PendingReq],
        wake: &mut Vec<Arc<Outbox>>,
        commits: Option<&Lane<Handed>>,
    ) {
        if let Some(commits) = commits {
            commits.wait_idle();
        }
        refuse(live, wake);
    }
}
