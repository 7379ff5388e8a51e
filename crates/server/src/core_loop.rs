//! The coalescing core: one thread that turns queued requests into CTT
//! batches, makes them durable, and answers every submitter.
//!
//! The paper's Combine stage *is* request coalescing — this loop is where
//! the serving layer meets it, and the path into and out of the loop pays
//! its fixed costs per group too. A connection thread hands over every
//! request one `read` brought in through [`ServerShared::submit_group`]:
//! one clock reading, the admission lock held once while
//! [`Admission::admit`] runs per request in arrival order, then the inbox
//! lock held once to append the admitted ones, and a wake-up only when the
//! loop is asleep and the append changes what it would do (the inbox was
//! empty, or it crossed the watermark). [`ServerShared::submit`] is the
//! group of one.
//! The two locks are taken one after the other, never nested; the only
//! nesting in the crate is [`ServerShared::stats`]' admission → snapshot.
//! Because a request is admitted under one lock and queued under the
//! other, the loop ends only once admission counts nothing the inbox has
//! not passed on, and a submitter looks for a dead core under the
//! admission lock: no admitted request is left unanswered.
//!
//! The core sleeps on the inbox condvar until that wake-up — or, with
//! requests queued below the watermark, until the oldest has lingered
//! [`ServerConfig::linger_ns`] — never longer than the 25 ms `POLL`, so
//! flags stored without the lock are still seen. It drains the inbox into
//! a batch when either the batch-size watermark or the max-linger deadline
//! is reached, then runs the batch through the resumable executor seam
//! ([`CttSession`]) and, with a data directory, through the durable log
//! ([`DurableLog`], the one implementation of the WAL/checkpoint protocol
//! the offline executor drives too):
//!
//! 1. append the batch record to the WAL ([`DurableLog::append`]);
//! 2. execute the batch (collecting each op's concrete answer);
//! 3. append the commit mark ([`DurableLog::commit`]), and **sync** it —
//!    the durability point is an fsync that *began after* the mark was
//!    fully written;
//! 4. only then send acknowledgements — each answer goes to its
//!    [`Reply`]: encoded straight into the owning connection's outbound
//!    buffer, whose writer is woken once per batch, or sent on an
//!    in-process channel.
//!
//! Who issues the sync of step 3 depends on who drives the loop.
//! [`ServerCore::run`] on a durable core is **pipelined** (DESIGN.md,
//! *Commit pipeline*): the loop writes the mark without syncing and hands
//! the batch to a *committer* thread, which takes everything queued, syncs
//! once on a second handle to the segment, and answers what it took, in
//! order — so no sync that began before a mark acknowledges it, and one
//! sync releases every mark written while the previous one ran. At most
//! `MAX_UNSYNCED_BATCHES` wait; a failed sync is final (never retried,
//! everything after it answered `Error`, the core dead); a rotation and
//! the end of `run` wait for the committer to go idle.
//! [`ServerCore::flush_now`] — the loop as a deterministic step function
//! — and a core without a data directory answer **inline**, through the
//! same function and with the same WAL bytes.
//!
//! A crash between 1 and 3 loses only *unacknowledged* requests — the
//! chaos cell's invariant. The vectors a flush works in (the drained
//! batch, the ops, the collected answers, the connections to wake) are
//! kept across flushes; those handed to the committer come back emptied.
//!
//! Checkpoints are split the same way — every
//! [`ServerConfig::checkpoint_every`] batches, at drain, and at an open
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
//! lane holds `MAX_UNSYNCED_BATCHES` batches and its body syncs and
//! answers; the checkpoint thread's holds one job and its body runs it.
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
    CheckpointJob, CheckpointKind, CttConsumer, CttOpEvent, CttSession, DcartConfig, DcartError,
    DurableLog, ExecOpts, Opened,
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

/// An fsync the server issues on a thread beside its loop, given the file
/// to sync: `File::sync_all`, unless a test has put its own in to hold it
/// back or make it fail — the commit sync of [`ServerCore::run`]'s
/// committer, on a second handle to the segment being appended to
/// ([`ServerCore::set_commit_sync`]), and the checkpoint job's sync of its
/// temp file ([`ServerCore::set_checkpoint_sync`]).
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
    /// Work stealing in the shard pool.
    pub steal: bool,
    /// Flush watermark: a batch executes as soon as this many requests
    /// are queued. Also the nominal batch size seeding the split policy.
    pub batch_size: usize,
    /// Max linger: a non-empty inbox flushes after this long even below
    /// the watermark, bounding the queueing delay a request can accrue.
    pub linger_ns: u64,
    /// Durability directory; `None` serves from memory only (acks then
    /// mean "executed", not "durable"). With one, a batch is acknowledged
    /// only once an fsync covers its commit mark.
    pub data_dir: Option<PathBuf>,
    /// Batches between checkpoints.
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
            linger_ns: 2_000_000, // 2 ms
            data_dir: None,
            checkpoint_every: 64,
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
pub struct PendingReq {
    /// The decoded request.
    pub req: Request,
    /// When the request was admitted — the linger clock starts here. One
    /// reading of the clock stamps every request of a group.
    pub arrival_ns: u64,
    /// Absolute deadline (clock origin), already clamped by admission.
    pub deadline_ns: u64,
    /// Where the answer goes.
    pub resp: Reply,
}

/// The admitted requests in arrival order, and what the core loop asks of
/// whoever appends to them.
struct Inbox {
    queue: VecDeque<PendingReq>,
    /// The queue length the sleeping loop wants to be woken at: 1 while it
    /// sleeps on an empty inbox, the flush watermark while it sleeps out
    /// the linger of a short one, `usize::MAX` while it is not asleep.
    wake_at: usize,
}

/// State shared between connection threads and the core loop.
pub struct ServerShared {
    inbox: Mutex<Inbox>,
    cond: Condvar,
    admission: Mutex<Admission>,
    snapshot: Mutex<CoreSnapshot>,
    shutdown: AtomicBool,
    dead: AtomicBool,
    clock: Arc<dyn Clock>,
}

impl ServerShared {
    /// Fresh shared state around `clock`.
    pub fn new(admission: AdmissionConfig, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(ServerShared {
            inbox: Mutex::new(Inbox { queue: VecDeque::new(), wake_at: usize::MAX }),
            cond: Condvar::new(),
            admission: Mutex::new(Admission::new(admission)),
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
    /// admission lock, one hold of the inbox lock and at most one wake-up
    /// of the core loop. A `stats` or `shutdown` request in the middle
    /// ends the run in front of it, so it sees exactly the admissions that
    /// arrived before it.
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
    /// in order under one hold of the admission lock and the admitted ones
    /// appended to the inbox under one hold of its lock.
    fn admit_ops(
        &self,
        ops: &[Request],
        reply: &impl Fn() -> Reply,
        immediate: &mut Vec<Response>,
    ) {
        let now = self.now_ns();
        let mut admitted = Vec::with_capacity(ops.len());
        {
            let mut adm = self.admission.lock().unwrap_or_else(|e| e.into_inner());
            // Under the lock: a core that died before the loop last looked
            // at admission admits nothing more.
            if self.is_dead() {
                immediate.extend(ops.iter().map(|req| Response::error(req.req_id)));
                return;
            }
            for req in ops {
                let deadline_ns = now.saturating_add(adm.effective_budget_ns(req.budget_ns));
                match adm.admit(req.kind, now, deadline_ns) {
                    Ok(()) => admitted.push(PendingReq {
                        req: *req,
                        arrival_ns: now,
                        deadline_ns,
                        resp: reply(),
                    }),
                    Err((reason, retry)) => {
                        immediate.push(Response::rejected(req.req_id, reason, retry));
                    }
                }
            }
        }
        if admitted.is_empty() {
            return;
        }
        let wake = {
            let mut inbox = self.inbox.lock().unwrap_or_else(|e| e.into_inner());
            let before = inbox.queue.len();
            inbox.queue.extend(admitted);
            before < inbox.wake_at && inbox.queue.len() >= inbox.wake_at
        };
        if wake {
            self.cond.notify_one();
        }
    }

    /// Initiates graceful drain: admission bounces new work, the acceptor
    /// stops, the core flushes what is queued and checkpoints.
    pub fn request_shutdown(&self) {
        self.admission.lock().unwrap_or_else(|e| e.into_inner()).start_drain();
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

    /// Assembles the full stats snapshot (admission + core).
    pub fn stats(&self) -> ServerStats {
        let adm = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        let core = *self.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        ServerStats {
            admission: adm.counters(),
            queue_depth: adm.queue_depth(),
            queue_capacity: adm.queue_capacity(),
            scan_latch_tripped: adm.scan_latch_tripped(),
            read_latch_tripped: adm.read_latch_tripped(),
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
/// of the inbox.
fn take_batch(inbox: &mut Inbox, watermark: usize, batch: &mut Vec<PendingReq>) {
    let take = inbox.queue.len().min(watermark);
    batch.extend(inbox.queue.drain(..take));
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
    /// On the first batch handed over after a rotation: a handle to the
    /// segment its mark is in, which the committer syncs from then on.
    segment: Option<File>,
}

/// Answers `Error` to every request of a batch whose outcome is void.
fn refuse(live: &[PendingReq], wake: &mut Vec<Arc<Outbox>>) {
    for p in live {
        p.resp.deliver(Response::error(p.req.req_id), wake);
    }
}

/// Stage 4 on either commit path: releases the answers of `batches`, in
/// order, after the sync that covers their marks has returned, with one
/// wake-up per touched connection. `sync_ns` is what that sync took, if
/// there was one. The counters are published first, so whoever has its
/// answer finds itself counted.
fn acknowledge(
    shared: &ServerShared,
    batches: &[Handed],
    sync_ns: Option<u64>,
    wake: &mut Vec<Arc<Outbox>>,
) {
    {
        let writes = batches.iter().flat_map(|h| &h.live).filter(|p| p.req.kind.is_write());
        let mut snap = shared.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        snap.acked_writes += writes.count() as u64;
        if let Some(ns) = sync_ns {
            snap.commit_syncs += 1;
            snap.commit_sync_ns_total += ns;
            snap.commit_sync_ns_max = snap.commit_sync_ns_max.max(ns);
        }
    }
    for h in batches {
        for (p, value) in h.live.iter().zip(&h.values) {
            p.resp.deliver(Response::ok(p.req.req_id, *value), wake);
        }
    }
    wake_writers(wake);
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
    /// body left it — on the checkpoint lane, the job that ended last (a
    /// default one when there is none left to collect).
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

/// What the committer thread keeps from one round to the next.
struct Committer {
    /// The commit fsync, given back to the core when the thread ends.
    sync: FileSync,
    /// A handle to the segment the loop appends to.
    segment: File,
    /// The failure that ended the sync's use, if one did.
    failure: Option<std::io::Error>,
    wake: Vec<Arc<Outbox>>,
}

/// The committer's body, one round over the batches it took at once: sync
/// once, then answer every batch taken, in order. They were taken before
/// the sync is called, and each was handed over after its mark's write
/// returned: the sync began after every mark it is about to acknowledge.
fn sync_and_answer(committer: &mut Committer, shared: &ServerShared, taken: &mut [Handed]) {
    let Committer { sync: commit_sync, segment, failure, wake } = committer;
    // The loop rotates only while the committer is idle, so the batches
    // of one round are in one segment; the first after a rotation brings
    // the new segment's handle.
    if let Some(file) = taken.iter_mut().find_map(|h| h.segment.take()) {
        *segment = file;
    }
    // The sync. A failed one is final: what the file holds is unknown
    // from then on (a second fsync may well return `Ok` over pages the
    // kernel already dropped), so it is never called again — these
    // batches and every later one are answered `Error`, and the core is
    // dead.
    let mut sync_ns = None;
    if failure.is_none() {
        let started = shared.now_ns();
        match commit_sync(segment) {
            Ok(()) => sync_ns = Some(shared.now_ns().saturating_sub(started)),
            Err(e) => {
                *failure = Some(e);
                shared.mark_dead();
            }
        }
    }
    // The answers.
    if failure.is_none() {
        acknowledge(shared, taken, sync_ns, wake);
    } else {
        taken.iter().for_each(|h| refuse(&h.live, wake));
        wake_writers(wake);
    }
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

/// A checkpoint on its way from the loop to the job and back.
#[derive(Default)]
struct Job {
    checkpoint: Option<CheckpointJob>,
    /// Set where the job ran.
    outcome: Option<Result<(), DcartError>>,
}

/// The checkpoint job — the checkpoint thread's body, or inline: merge,
/// check, install, reset the retired segment — [`CheckpointJob::run`] —
/// then publish what it did and, on any failure, mark the core dead.
fn run_job(job: &mut Job, ctx: &mut JobCtx, shared: &ServerShared) {
    let Some(checkpoint) = &mut job.checkpoint else { return };
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
        match result {
            Ok(CheckpointKind::Walked) => snap.checkpoints_walked += 1,
            Ok(CheckpointKind::Merged { dirty_keys }) => {
                snap.checkpoints_merged += 1;
                snap.checkpoint_dirty_keys += dirty_keys;
            }
            Err(_) => {}
        }
    }
    if result.is_err() {
        shared.mark_dead();
    }
    job.outcome = Some(result.map(drop));
}

/// The lanes to the side threads while [`ServerCore::run`] runs a durable
/// core.
#[derive(Clone, Copy)]
struct Lanes<'a> {
    commits: &'a Lane<Handed>,
    checkpoints: &'a Lane<Job>,
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
    /// The commit fsync [`ServerCore::run`] gives its committer: present
    /// when there is a data directory, and not on the committer's thread.
    commit_sync: Option<FileSync>,
    /// A handle to the segment the loop appends to since its last
    /// rotation, for the committer; the next batch handed over carries it.
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
            ..CoreSnapshot::default()
        };
        let durable = log.is_some();
        let crash = || match config.crash {
            Some(plan) => CrashInjector::for_plan(plan),
            None => CrashInjector::counting(),
        };
        let mut core = ServerCore {
            crash: crash(),
            job_ctx: durable.then(|| JobCtx { crash: crash(), sync: sync_all() }),
            commit_sync: durable.then(sync_all),
            next_segment: None,
            shared,
            config,
            session,
            log,
            error: None,
            scratch: FlushScratch::default(),
        };
        if let Some(checkpoint) = absorb {
            core.run_inline(Job { checkpoint: Some(checkpoint), outcome: None })?;
        }
        Ok(core)
    }

    /// Replaces the fsync [`ServerCore::run`]'s committer calls — the seam
    /// through which tests hold a sync back or make it fail without a
    /// failing disk. Nothing happens on a core without a data directory.
    // dcart_lint::allow(U1) -- fault-injection seam: tests hold back or fail the commit fsync
    pub fn set_commit_sync(&mut self, sync: FileSync) {
        if let Some(slot) = &mut self.commit_sync {
            *slot = sync;
        }
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
        let mut sides = None;
        if let Some(log) = &self.log {
            match log.sync_handle() {
                Ok(segment) => {
                    sides = self.commit_sync.take().zip(self.job_ctx.take()).map(|(sync, ctx)| {
                        (Committer { sync, segment, failure: None, wake: Vec::new() }, ctx)
                    });
                }
                // No committer without a handle: the core is dead, and the
                // loop only answers `Error` to what was admitted.
                Err(e) => {
                    self.error.get_or_insert(wal::WalError::Io(e).into());
                    self.shared.mark_dead();
                }
            }
        }
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
                        taken.iter_mut().for_each(|job| run_job(job, &mut ctx, shared));
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
            self.commit_sync = Some(committer.sync);
            if let Some(e) = committer.failure {
                self.error.get_or_insert(wal::WalError::Io(e).into());
            }
            self.job_ctx = Some(ctx);
        }
        // The job that ended last, then — drain complete — a final
        // checkpoint, so that restart needs no replay.
        let last = self.finish_job(checkpoints.take_back());
        if let Err(e) = last.and_then(|()| self.checkpoint(true, None)) {
            self.error.get_or_insert(e);
        }
        self.error.take()
    }

    /// [`ServerCore::run`]'s loop; with `lanes`, batches are handed to
    /// the committer instead of being synced and answered here, and
    /// checkpoint jobs to the checkpoint thread.
    fn serve(&mut self, lanes: Option<Lanes<'_>>) {
        let watermark = self.config.batch_size;
        loop {
            {
                let shared = &self.shared;
                let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    // Dead servers still drain the inbox below so every
                    // queued submitter gets an error, then stop; a drain
                    // flushes whatever is queued without waiting for more.
                    if shared.is_dead() || shared.is_shutdown() || inbox.queue.len() >= watermark {
                        break;
                    }
                    // Sleep until something can change the decision: an
                    // arrival while the inbox is empty, else the watermark
                    // or the moment the oldest request has waited
                    // `linger_ns` since admission (regardless of its
                    // possibly much longer deadline budget). A `TestClock`
                    // that stands still keeps the loop here; tests move it,
                    // reach the watermark, or call `flush_now`.
                    let mut wait = POLL;
                    if let Some(oldest) = inbox.queue.front() {
                        let due = oldest.arrival_ns.saturating_add(self.config.linger_ns);
                        let now = shared.now_ns();
                        if now >= due {
                            break;
                        }
                        wait = wait.min(Duration::from_nanos(due - now));
                    }
                    inbox.wake_at = if inbox.queue.is_empty() { 1 } else { watermark };
                    let (guard, _) =
                        shared.cond.wait_timeout(inbox, wait).unwrap_or_else(|e| e.into_inner());
                    inbox = guard;
                    inbox.wake_at = usize::MAX;
                }
                take_batch(&mut inbox, watermark, &mut self.scratch.handed.live);
            }
            if self.scratch.handed.live.is_empty() {
                if self.shared.is_shutdown() || self.shared.is_dead() {
                    // Admission counts what it admitted until the loop
                    // takes it; a count the inbox does not hold is a
                    // submitter between its two lock holds.
                    let admission = &self.shared.admission;
                    if admission.lock().unwrap_or_else(|e| e.into_inner()).queue_depth() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                continue;
            }
            self.execute(lanes);
        }
    }

    /// Flushes up to one batch immediately, bypassing the wait loop —
    /// the deterministic test hook. The batch is synced and answered
    /// inline, before this returns, and a checkpoint it triggers is
    /// installed inline too.
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
    /// request in it is answered: here, or — with a committer — by the
    /// committer once a sync covers the batch's mark.
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
        let released = live.len() as u64;
        live.retain(|p| {
            let alive = p.deadline_ns > now;
            if !alive {
                let expired = dcart_engine::RejectReason::DeadlineExceeded;
                p.resp.deliver(Response::rejected(p.req.req_id, expired, 0), wake);
            }
            alive
        });
        let expired = released - live.len() as u64;
        {
            let mut adm = self.shared.admission.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..expired {
                adm.note_expired_in_queue();
            }
            adm.release(released);
        }
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

        // 1. WAL the batch before any effect becomes visible (the log also
        // notes, for the next checkpoint, which keys the batch writes).
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

        // 3. Commit mark. Inline, `commit` fsyncs it here — the durability
        // point; with a committer, the mark is only written and the
        // committer's next sync is the durability point. An injected
        // crash here is the chaos cell's kill — the batch was executed but
        // never acknowledged, and recovery must not surface it.
        let digest = self.session.answer_digest();
        let mut sync_ns = None;
        if let Some(log) = &mut self.log {
            let started = commits.is_none().then(|| self.shared.now_ns());
            if let Err(e) = log.commit(digest, ops.len() as u32, started.is_some(), &mut self.crash)
            {
                return self.die(live, wake, commits, e);
            }
            sync_ns = started.map(|started| self.shared.now_ns().saturating_sub(started));
        }

        // 4. Acknowledge. An answer to a connection is encoded into that
        // connection's outbound buffer, and each touched connection's
        // writer is woken once, after the last answer of the batch — by
        // the committer, once a sync that began after this point has
        // returned, or right here.
        match commits {
            Some(commits) => {
                handed.segment = self.next_segment.take();
                commits.hand_over(handed);
            }
            None => acknowledge(&self.shared, std::slice::from_ref(handed), sync_ns, wake),
        }
        self.publish(|snap| {
            snap.batches += 1;
            snap.ops += ops.len() as u64;
            snap.answer_digest = digest;
        });

        let every = self.config.checkpoint_every;
        if self.log.as_ref().is_some_and(|log| log.uncheckpointed() >= every) {
            if let Err(e) = self.checkpoint(false, lanes) {
                self.error.get_or_insert(e);
                self.shared.mark_dead();
            }
        }
    }

    /// Publishes what the loop counts, under one hold of the snapshot
    /// lock: `count` updates the loop's counters in place, and the log's
    /// traffic replaces its published copy — all but `persist.checkpoints`
    /// and `persist.checkpoint_bytes`, which [`run_job`] adds to where the
    /// job runs, as [`acknowledge`] counts the answers and syncs.
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
        }
    }

    /// The loop's half of a checkpoint: wait for the previous job to end
    /// (its segment is the spare again) and for the committer to go idle,
    /// rotate the log, and hand the job to the checkpoint thread or run it
    /// here. That much, on the injected clock, is the loop's stall. At
    /// `drain` it walks, and is skipped when the installed checkpoint
    /// already stands for every committed batch. A dead core checkpoints
    /// nothing: a failed sync or job must leave the old checkpoint and
    /// both segments as they are.
    fn checkpoint(&mut self, walk: bool, lanes: Option<Lanes<'_>>) -> Result<(), DcartError> {
        let started = self.shared.now_ns();
        if let Some(lanes) = lanes {
            self.finish_job(lanes.checkpoints.take_back())?;
            lanes.commits.wait_idle();
        }
        if self.shared.is_dead() {
            return Ok(());
        }
        let Some(log) = &mut self.log else { return Ok(()) };
        if walk && log.checkpointed() {
            return Ok(());
        }
        // Capture and rotate: the loop appends to the spare from here on,
        // and the old segment goes with the job, which empties it once the
        // checkpoint that absorbs it is installed. The committer, idle
        // now, syncs the new segment from the next batch on.
        let checkpoint = log.rotate(&self.session, walk)?;
        if lanes.is_some() {
            self.next_segment = Some(log.sync_handle()?);
        }
        let stall = self.shared.now_ns().saturating_sub(started);
        self.publish(|snap| {
            snap.checkpoint_stall_ns_total += stall;
            snap.checkpoint_stall_ns_max = snap.checkpoint_stall_ns_max.max(stall);
        });
        let mut job = Job { checkpoint: Some(checkpoint), outcome: None };
        match lanes {
            Some(lanes) => {
                lanes.checkpoints.hand_over(&mut job);
                Ok(())
            }
            None => self.run_inline(job),
        }
    }

    /// Runs a checkpoint job on the calling thread and takes it back.
    fn run_inline(&mut self, mut job: Job) -> Result<(), DcartError> {
        let Some(ctx) = &mut self.job_ctx else {
            return Err(DcartError::Recovery("checkpoint job state is away".into()));
        };
        run_job(&mut job, ctx, &self.shared);
        self.finish_job(job)
    }

    /// Takes back a job that has ended: the log its image and its retired
    /// segment — the spare — and the job's error, if it failed.
    fn finish_job(&mut self, job: Job) -> Result<(), DcartError> {
        if let (Some(log), Some(checkpoint)) = (&mut self.log, job.checkpoint) {
            log.finish(checkpoint);
        }
        job.outcome.unwrap_or(Ok(()))
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
