//! Crash-consistent durability: write-ahead logging, checkpoints and
//! verified recovery for CTT executions — one engine, [`DurableLog`],
//! which both executors drive: [`run_durable`] offline and `dcart-server`'s
//! core loop online.
//!
//! # Protocol
//!
//! Every batch crosses the log in two stages around its execution:
//!
//! 1. **batch record** ([`DurableLog::append`]) — the batch's encoded
//!    operations, appended *before* any of the batch's effects become
//!    externally visible;
//! 2. **commit record** ([`DurableLog::commit`]) — the cumulative answer
//!    digest and op count, appended after the batch executed and covered
//!    by an fsync before it is acknowledged. The commit mark *is* the
//!    durability point: a batch without one is truncated at recovery,
//!    never replayed.
//!
//! The log is two WAL segments ([`WAL_SEGMENTS`]). A checkpoint
//! [rotates](DurableLog::rotate) appends onto the empty one, and a
//! [`CheckpointJob`] — inline, or on a thread of its own while appends go
//! on — installs the tree's entries with the classic temp-file protocol
//! (write `checkpoint.tmp`, fsync, atomically rename over
//! `checkpoint.snap`, fsync the directory) and only then resets the
//! segment the checkpoint absorbed. Every window between those steps is a
//! distinct [`CrashSite`]; the crash-point matrix and the soak in
//! `crates/bench` kill [`run_durable`] inside each one. A checkpoint is
//! [due](DurableLog::checkpoint_due) once the segment appended to has
//! grown as large as the last checkpoint file (1 MiB at least), or after
//! the caller's cap on batches. The caller keeps the session, the threads
//! and the crash injectors.
//!
//! # Checkpoint files
//!
//! A checkpoint is a `DCARTCKP` prelude (`next_seq`, cumulative answer
//! digest) around a binary `DCARTSNP` snapshot container (see
//! `dcart_art`'s `serde_impl`), closed by a checksum chained over the
//! prelude and the container's own checksum. [`write_checkpoint`] encodes
//! a merged [`Art`]; a [`DurableLog`] encodes an ordered walk of a live
//! [`CttSession`]'s shards — the same bytes — into one buffer it keeps
//! from checkpoint to checkpoint.
//!
//! # Recovery
//!
//! [`DurableLog::open`], the one way into a directory, loads the
//! checkpoint, scans both segments, and replays the committed batches
//! past the checkpoint in sequence order, each WAL record as one
//! [`CttSession::execute_batch`]; only then does it cut the segments'
//! torn tails. Replay is *verified*: each batch must
//! be the next sequence number, hold the op count and reproduce exactly
//! the cumulative answer digest its commit record promised, so silent
//! divergence is a typed error, not a wrong answer. Correctness rests on
//! the chaos invariant the fault suite enforces — answers depend only on
//! tree contents, never on shortcut/fault/buffer state — which makes a
//! replay from a checkpointed tree answer-identical to the original
//! execution.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use dcart_art::{Art, Key, SnapshotEntries, SnapshotWriter};
use dcart_engine::{wal, CrashInjector, CrashSite, WalBatch, WalError, WalWriter};
use dcart_mem::PersistStats;
use dcart_workloads::{KeySet, Op, OpKind};

use crate::config::DcartConfig;
use crate::ctt::{tree_digest, CttConsumer, CttSession, ExecOpts};
use crate::error::DcartError;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DCARTCKP";

/// File name of the first WAL segment inside a durability directory —
/// the one a fresh log appends to.
pub const WAL_FILE: &str = "dcart.wal";

/// The two WAL segments a [`DurableLog`] appends to in turn: while a
/// checkpoint absorbs the batches of one, new batches go to the other.
pub const WAL_SEGMENTS: [&str; 2] = [WAL_FILE, "dcart.wal.1"];

/// File name of the live checkpoint inside a durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snap";

/// File name of the in-flight checkpoint (crash residue when present).
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// Checkpoint prelude: magic + next-batch seq + cumulative digest.
const CHECKPOINT_PRELUDE: usize = 8 + 8 + 8;

/// Sizing hint for checkpoint buffers: what an entry with an 8-byte key
/// takes.
const ENTRY_HINT: usize = 18;

/// The least a WAL segment holds before its size alone makes a checkpoint
/// due ([`DurableLog::checkpoint_due`]): without a checkpoint, or with a
/// small one, the byte rule would otherwise install after every few
/// batches.
const CHECKPOINT_FLOOR_BYTES: u64 = 1 << 20;

/// How and where a run persists its state.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the WAL and checkpoint files.
    pub dir: PathBuf,
    /// At most this many batches between checkpoints; within that, a
    /// checkpoint follows once the WAL segment appended to has grown as
    /// large as the last checkpoint file ([`DurableLog::checkpoint_due`]).
    /// Every commit record is fsynced.
    pub checkpoint_every: u64,
}

/// What a durable run (or its simulated death) left behind.
#[derive(Debug)]
pub struct DurableOutcome {
    /// Cumulative answer digest over every batch this run committed. On a
    /// crash-free run this equals the uninterrupted executor's
    /// `CttStats::answer_digest` for the same workload.
    pub answer_digest: u64,
    /// Digest of the final tree contents; 0 when the planned crash fired
    /// (the simulated process is dead — its in-memory state is gone by
    /// definition, and only [`DurableLog::open`] over the directory gets
    /// it back).
    pub tree_digest: u64,
    /// Batches durably committed by this invocation.
    pub batches_committed: u64,
    /// The planned crash that fired, if any.
    pub crashed: Option<CrashSite>,
    /// Storage-traffic accounting for the whole invocation, the batches
    /// replayed and the torn bytes cut while opening included.
    pub persist: PersistStats,
}

// --- operation codec -------------------------------------------------------

fn op_kind_code(kind: OpKind) -> u8 {
    match kind {
        OpKind::Read => 0,
        OpKind::Update => 1,
        OpKind::Insert => 2,
        OpKind::Remove => 3,
        OpKind::Scan => 4,
    }
}

fn op_kind_from(code: u8) -> Option<OpKind> {
    match code {
        0 => Some(OpKind::Read),
        1 => Some(OpKind::Update),
        2 => Some(OpKind::Insert),
        3 => Some(OpKind::Remove),
        4 => Some(OpKind::Scan),
        _ => None,
    }
}

/// Encodes a batch of operations as a WAL payload:
/// `count u32 | (kind u8 | value u64 | key_len u16 | key bytes)*`,
/// everything little-endian.
pub fn encode_ops(batch: &[Op]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + batch.len() * 19);
    encode_ops_into(batch, &mut buf);
    buf
}

/// [`encode_ops`] into a buffer the caller keeps: `buf` is cleared and
/// holds exactly the payload afterwards.
pub fn encode_ops_into(batch: &[Op], buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(4 + batch.len() * 19);
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for op in batch {
        buf.push(op_kind_code(op.kind));
        buf.extend_from_slice(&op.value.to_le_bytes());
        let kb = op.key.as_bytes();
        buf.extend_from_slice(&(kb.len() as u16).to_le_bytes());
        buf.extend_from_slice(kb);
    }
}

fn malformed(what: &str) -> DcartError {
    DcartError::Recovery(format!("malformed WAL batch payload: {what}"))
}

/// Decodes a WAL batch payload back into operations. Every structural
/// violation is a typed [`DcartError::Recovery`] — payloads are
/// checksummed, so reaching one means the codec (not the disk) is at
/// fault, and it must still never panic.
pub fn decode_ops(bytes: &[u8]) -> Result<Vec<Op>, DcartError> {
    let count = bytes.get(..4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])) as Option<u32>;
    let count = count.ok_or_else(|| malformed("missing count"))? as usize;
    let mut ops = Vec::with_capacity(count);
    let mut off = 4usize;
    for _ in 0..count {
        let kind = bytes
            .get(off)
            .copied()
            .and_then(op_kind_from)
            .ok_or_else(|| malformed("bad op kind"))?;
        let value = bytes
            .get(off + 1..off + 9)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .ok_or_else(|| malformed("short value"))?;
        let key_len = bytes
            .get(off + 9..off + 11)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .ok_or_else(|| malformed("short key length"))? as usize;
        if key_len == 0 {
            return Err(malformed("empty key"));
        }
        let key =
            bytes.get(off + 11..off + 11 + key_len).ok_or_else(|| malformed("short key bytes"))?;
        ops.push(Op { kind, key: Key::from_raw(key.to_vec().into_boxed_slice()), value });
        off += 11 + key_len;
    }
    if off != bytes.len() {
        return Err(malformed("trailing bytes"));
    }
    Ok(ops)
}

// --- checkpoint files ------------------------------------------------------

/// The outer checksum: the WAL's record checksum over the prelude and the
/// snapshot container's own checksum. The container's checksum already
/// covers every payload byte, so chaining it extends the protection to
/// the prelude without reading the payload a second time.
fn chained_checksum(prelude: &[u8], snapshot_checksum: u64) -> u64 {
    let mut chained = [0u8; CHECKPOINT_PRELUDE + 8];
    chained[..CHECKPOINT_PRELUDE].copy_from_slice(prelude);
    chained[CHECKPOINT_PRELUDE..].copy_from_slice(&snapshot_checksum.to_le_bytes());
    wal::checksum(&chained)
}

/// Serializes a checkpoint file into `out` (cleared first):
/// `magic | next_seq u64 | digest u64 | snapshot container | checksum`,
/// the container holding `entries` (ascending by key).
fn encode_checkpoint<'a>(
    out: &mut Vec<u8>,
    next_seq: u64,
    digest: u64,
    entries: impl IntoIterator<Item = (&'a Key, u64)>,
) -> Result<(), DcartError> {
    out.clear();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&next_seq.to_le_bytes());
    out.extend_from_slice(&digest.to_le_bytes());
    let mut writer = SnapshotWriter::begin(out);
    for (key, value) in entries {
        writer.push(key.as_bytes(), value)?;
    }
    let written = writer.finish();
    let outer = chained_checksum(&out[..CHECKPOINT_PRELUDE], written.checksum);
    out.extend_from_slice(&outer.to_le_bytes());
    Ok(())
}

/// Installs an encoded checkpoint with the temp-file + atomic-rename
/// protocol — write `checkpoint.tmp`, fsync it (through `sync`), rename
/// it over `checkpoint.snap`, fsync the directory — and only then resets
/// `retired`, the WAL (segment) whose batches the checkpoint absorbs.
/// `sync` is `File::sync_all`, unless a caller has put its own in to hold
/// an install back or make it fail.
/// Exercises the three checkpoint crash sites; after any error the log is
/// untouched.
fn install_checkpoint(
    dir: &Path,
    bytes: &[u8],
    retired: Option<&mut WalWriter>,
    sync: &mut dyn FnMut(&File) -> std::io::Result<()>,
    crash: &mut CrashInjector,
    persist: &mut PersistStats,
) -> Result<(), DcartError> {
    let tmp = dir.join(CHECKPOINT_TMP);
    if crash.should_crash(CrashSite::MidCheckpoint) {
        // Die mid-write: a deterministic prefix of the temp file lands.
        let torn = crash.torn_len(bytes.len());
        let mut f = File::create(&tmp)?;
        f.write_all(bytes.get(..torn).unwrap_or(bytes))?;
        f.sync_all()?;
        persist.checkpoint_bytes += torn as u64;
        return Err(WalError::InjectedCrash(CrashSite::MidCheckpoint).into());
    }
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    sync(&f)?;
    drop(f);
    persist.checkpoint_bytes += bytes.len() as u64;
    if crash.should_crash(CrashSite::BeforeSwap) {
        // Temp file complete and synced, rename never happened: the
        // previous checkpoint (or none) stays live.
        return Err(WalError::InjectedCrash(CrashSite::BeforeSwap).into());
    }
    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    // The rename lives in the directory, not in the file: without this a
    // power cut could keep the WAL reset below and lose the rename it
    // relies on.
    wal::sync_dir(dir)?;
    persist.checkpoints += 1;
    if crash.should_crash(CrashSite::AfterSwap) {
        // New checkpoint live, WAL not yet reset: recovery must skip the
        // already-absorbed batches still sitting in the log.
        return Err(WalError::InjectedCrash(CrashSite::AfterSwap).into());
    }
    if let Some(retired) = retired {
        retired.reset()?;
    }
    Ok(())
}

/// Encodes `tree` as a checkpoint and installs it, resetting no log.
/// Public for callers that hold a merged tree; a live [`CttSession`]
/// checkpoints through a [`DurableLog`], which needs no merged tree.
///
/// # Errors
///
/// I/O failures, snapshot-encoding failures, or an injected crash from
/// `crash` at one of the three checkpoint sites (the crash site surfaces
/// as [`WalError::InjectedCrash`]).
pub fn write_checkpoint(
    dir: &Path,
    next_seq: u64,
    digest: u64,
    tree: &Art<u64>,
    crash: &mut CrashInjector,
    persist: &mut PersistStats,
) -> Result<(), DcartError> {
    let mut bytes = Vec::new();
    encode_checkpoint(&mut bytes, next_seq, digest, tree.iter().map(|(k, &v)| (k, v)))?;
    install_checkpoint(dir, &bytes, None, &mut File::sync_all, crash, persist)
}

/// A checkpoint as it sits on disk, decoded but not yet loaded into a tree.
#[derive(Debug)]
pub struct CheckpointPairs {
    /// Sequence number of the first batch the checkpoint does not contain.
    pub next_seq: u64,
    /// Cumulative answer digest as of `next_seq`.
    pub digest: u64,
    /// Every entry, ascending by key and prefix-free.
    pub pairs: Vec<(Key, u64)>,
}

/// Loads the live checkpoint, if present, without building a tree — the
/// restart path, which routes the entries straight into shards.
///
/// # Errors
///
/// I/O failures other than the file being absent,
/// [`DcartError::Snapshot`] for a corrupt, truncated or other-version
/// snapshot container, [`DcartError::Recovery`] for a file that is not a
/// checkpoint or whose outer checksum does not match.
pub fn read_checkpoint_pairs(dir: &Path) -> Result<Option<CheckpointPairs>, DcartError> {
    Ok(read_checkpoint_file(dir)?.map(|(ckpt, _)| ckpt))
}

/// [`read_checkpoint_pairs`], with the length of the file read.
fn read_checkpoint_file(dir: &Path) -> Result<Option<(CheckpointPairs, u64)>, DcartError> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < CHECKPOINT_PRELUDE + 8 || bytes[..8] != CHECKPOINT_MAGIC {
        return Err(DcartError::Recovery(format!(
            "checkpoint file {} is not a checkpoint (bad magic or too short)",
            path.display()
        )));
    }
    let (prelude, rest) = bytes.split_at(CHECKPOINT_PRELUDE);
    let (container, outer) = rest.split_at(rest.len() - 8);
    // The container first: its version check is what tells an old-format
    // file from a damaged one.
    let (entries, snapshot_checksum) = SnapshotEntries::open(container)?;
    let stored = u64::from_le_bytes(outer.try_into().unwrap_or([0; 8])); // split at len - 8
    if chained_checksum(prelude, snapshot_checksum) != stored {
        return Err(DcartError::Recovery("checkpoint checksum mismatch".into()));
    }
    let ckpt = CheckpointPairs {
        next_seq: u64::from_le_bytes(prelude[8..16].try_into().unwrap_or([0; 8])),
        digest: u64::from_le_bytes(prelude[16..24].try_into().unwrap_or([0; 8])),
        pairs: entries.collect_pairs()?,
    };
    Ok(Some((ckpt, bytes.len() as u64)))
}

/// Loads the live checkpoint, if present:
/// `(next_seq, cumulative digest, tree)`.
///
/// # Errors
///
/// Those of [`read_checkpoint_pairs`].
pub fn read_checkpoint(dir: &Path) -> Result<Option<(u64, u64, Art<u64>)>, DcartError> {
    let Some(ckpt) = read_checkpoint_pairs(dir)? else { return Ok(None) };
    Ok(Some((ckpt.next_seq, ckpt.digest, Art::from_sorted(ckpt.pairs)?)))
}

// --- checkpoint jobs ---------------------------------------------------------

/// One checkpoint between its capture and its install: the encoded file
/// and the WAL segment it absorbs. Made by [`DurableLog::rotate`] (or
/// [`DurableLog::open`]), run anywhere, handed back with
/// [`DurableLog::finish`], which returns what the run came to.
pub struct CheckpointJob {
    dir: PathBuf,
    /// The segment the checkpoint absorbs, reset once it is installed.
    retired: Option<WalWriter>,
    next_seq: u64,
    /// The file to install, encoded at capture.
    file: Vec<u8>,
    /// What the run came to; `None` until the job has run.
    outcome: Option<Result<(), DcartError>>,
}

impl CheckpointJob {
    /// The half of a checkpoint that does not need the session: installs
    /// the file — tmp, `sync`, rename, directory fsync — and only then
    /// resets the retired segment, if any. The checkpoint crash sites fire
    /// on the thread that calls this. The outcome stays with the job, for
    /// [`DurableLog::finish`] to return; the reference returned here is
    /// for a caller that acts on it at once. An I/O failure, or an
    /// injected crash at one of the three checkpoint sites, leaves the
    /// retired segment untouched.
    pub fn run(
        &mut self,
        sync: &mut dyn FnMut(&File) -> std::io::Result<()>,
        crash: &mut CrashInjector,
        persist: &mut PersistStats,
    ) -> &Result<(), DcartError> {
        let retired = self.retired.as_mut();
        let ran = install_checkpoint(&self.dir, &self.file, retired, sync, crash, persist);
        self.outcome.insert(ran)
    }
}

// --- the durable log ---------------------------------------------------------

/// Discards a replayed batch's events: only the session's digest is
/// checked, against the batch's commit mark.
struct NoEvents;
impl CttConsumer for NoEvents {}

/// The WAL/checkpoint protocol, implemented once: the two WAL segments,
/// the checkpoint buffer, the sequence number of the next batch and the
/// traffic accounting. [`run_durable`] and `dcart-server`'s core loop
/// drive it the same way: [`open`](Self::open) the directory; per batch,
/// [`append`](Self::append) its record, execute it, [`commit`](Self::commit)
/// its mark, and acknowledge it once an fsync that began after the mark
/// has returned; once [`checkpoint_due`](Self::checkpoint_due),
/// [`rotate`](Self::rotate), run the job — on any thread — and
/// [`finish`](Self::finish) it. The session, and the crash injectors (call
/// parameters, as on [`WalWriter`]), stay the caller's.
pub struct DurableLog {
    /// The segment appended to.
    writer: WalWriter,
    /// The other segment, empty; away while a job absorbs it.
    spare: Option<WalWriter>,
    dir: PathBuf,
    /// The buffer checkpoint files are encoded in, kept for its capacity;
    /// away while a job installs it.
    file: Vec<u8>,
    /// `next_seq` of the checkpoint live in `dir`, when known (a job still
    /// out is not counted).
    installed_seq: Option<u64>,
    /// Length of the checkpoint file live in `dir`, 0 when unknown.
    installed_bytes: u64,
    next_seq: u64,
    /// Batches committed since the last rotation, or since the open.
    uncheckpointed: u64,
    persist: PersistStats,
    /// The batch being appended, as a WAL payload; kept for its capacity.
    payload: Vec<u8>,
}

/// What [`DurableLog::open`] recovered.
pub struct Opened {
    /// The log, appending after the newest committed batch.
    pub log: DurableLog,
    /// The state as of that batch.
    pub session: CttSession,
    /// When the spare segment still holds batches (a crash inside a job),
    /// the walked checkpoint that absorbs them: run and finish it before
    /// the first rotation.
    pub absorb: Option<CheckpointJob>,
    /// The batch size in the header of the segment appended to, when that
    /// segment existed before the open.
    pub logged_batch_size: Option<usize>,
}

impl DurableLog {
    /// Opens the log under `dir` (created if missing) and recovers the
    /// state it holds: reads the checkpoint, scans both segments, seeds a
    /// session with the checkpoint's entries (or `initial_pairs`) and
    /// replays every committed batch past the checkpoint in sequence
    /// order. Each WAL record replays as one executor batch — the live
    /// run's boundaries — and must be the next sequence number, hold the
    /// op count its commit mark promised and reproduce the digest it
    /// promised. Only once every batch verified does it write: it drops a
    /// stray `checkpoint.tmp` (crash residue), cuts the segments' torn
    /// tails, and creates a missing segment with `batch_size` in its
    /// header, also the session's nominal batch size; an error leaves the
    /// directory as it was. No crash site fires here: a spare that holds
    /// batches is replayed, and the checkpoint that absorbs it is handed
    /// back in [`Opened::absorb`].
    ///
    /// # Errors
    ///
    /// * [`DcartError::Wal`] / [`DcartError::Snapshot`] / [`DcartError::Io`]
    ///   for unreadable or foreign files;
    /// * [`DcartError::Recovery`] when the committed batches are not a
    ///   contiguous extension of the checkpoint, a payload is malformed, or
    ///   a replayed batch diverges from its commit record.
    pub fn open(
        dir: &Path,
        initial_pairs: &[(Key, u64)],
        config: &DcartConfig,
        opts: &ExecOpts,
        batch_size: usize,
    ) -> Result<Opened, DcartError> {
        fs::create_dir_all(dir)?;
        let (checkpoint, installed_bytes) = match read_checkpoint_file(dir)? {
            Some((ckpt, bytes)) => (Some(ckpt), bytes),
            None => (None, 0),
        };
        let mut segments = Vec::with_capacity(WAL_SEGMENTS.len());
        for name in WAL_SEGMENTS {
            let path = dir.join(name);
            let scan = if path.exists() { Some(wal::scan(&path)?) } else { None };
            segments.push((path, scan));
        }
        // Appends continue in the segment holding the newest batch (the
        // first, when neither does).
        let last_seq =
            |i: usize| segments[i].1.as_ref().and_then(|s| s.batches.last()).map(|b| b.seq);
        let active = usize::from(last_seq(1) > last_seq(0));
        let logged_batch_size = segments[active].1.as_ref().map(|s| s.batch_size as usize);

        let installed_seq = checkpoint.as_ref().map(|ckpt| ckpt.next_seq);
        let (start_seq, start_digest, pairs) = match &checkpoint {
            Some(ckpt) => (ckpt.next_seq, ckpt.digest, ckpt.pairs.as_slice()),
            None => (0, 0, initial_pairs),
        };
        let mut session = CttSession::from_pairs(pairs, config, opts, batch_size, start_digest)?;
        drop(checkpoint); // the decoded entries live in the shards now

        // Batches the checkpoint already absorbed (the after-swap window
        // leaves them in a segment) are skipped; the rest must extend it
        // contiguously.
        let mut batches: Vec<&WalBatch> = segments
            .iter()
            .filter_map(|(_, scan)| scan.as_ref())
            .flat_map(|scan| &scan.batches)
            .filter(|b| b.seq >= start_seq)
            .collect();
        batches.sort_unstable_by_key(|b| b.seq);
        for (seq, b) in (start_seq..).zip(&batches) {
            if b.seq != seq {
                return Err(DcartError::Recovery(format!(
                    "WAL batch sequence gap: expected {seq}, found {}",
                    b.seq
                )));
            }
            let ops = decode_ops(&b.payload)?;
            if ops.len() != b.ops as usize {
                return Err(DcartError::Recovery(format!(
                    "batch {seq}: payload holds {} ops, commit record promised {}",
                    ops.len(),
                    b.ops
                )));
            }
            session.execute_batch(&ops, &mut NoEvents)?;
            if session.answer_digest() != b.digest {
                return Err(DcartError::Recovery(format!(
                    "replayed batch {seq} produced digest {:#x}, commit record promised {:#x}",
                    session.answer_digest(),
                    b.digest
                )));
            }
        }
        let mut persist =
            PersistStats { replayed_batches: batches.len() as u64, ..PersistStats::default() };

        // Verified: only now does the open write. A refused directory is
        // left exactly as it was found.
        match fs::remove_file(dir.join(CHECKPOINT_TMP)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        for (path, scan) in &segments {
            if let Some(scan) = scan.as_ref().filter(|s| s.torn_bytes > 0) {
                let file = fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(scan.valid_len)?;
                file.sync_all()?;
                persist.torn_bytes_truncated += scan.torn_bytes;
            }
        }

        let writer = |i: usize| match &segments[i] {
            (path, Some(scan)) => WalWriter::open_append(path, scan.valid_len),
            (path, None) => WalWriter::create(path, batch_size as u32),
        };
        let mut log = DurableLog {
            writer: writer(active)?,
            spare: Some(writer(1 - active)?),
            dir: dir.to_path_buf(),
            file: Vec::new(),
            installed_seq,
            installed_bytes,
            next_seq: start_seq + persist.replayed_batches,
            uncheckpointed: 0,
            persist,
            payload: Vec::new(),
        };
        // Appends rotate onto the spare only while it is empty.
        let absorb = match log.spare.take_if(|spare| !spare.is_empty()) {
            Some(retired) => {
                let mut job = log.capture(&session)?;
                job.retired = Some(retired);
                Some(job)
            }
            None => None,
        };
        Ok(Opened { log, session, absorb, logged_batch_size })
    }

    /// Stage 1: appends the record of `batch`. A [`CrashSite::MidRecord`]
    /// opportunity.
    ///
    /// # Errors
    ///
    /// I/O failures, or the injected crash.
    pub fn append(&mut self, batch: &[Op], crash: &mut CrashInjector) -> Result<(), DcartError> {
        encode_ops_into(batch, &mut self.payload);
        self.persist.payload_bytes += self.payload.len() as u64;
        let before = self.writer.len();
        self.writer.append_batch(self.next_seq, &self.payload, crash)?;
        self.persist.wal_bytes += self.writer.len() - before;
        self.persist.wal_batches += 1;
        Ok(())
    }

    /// Stage 3: appends the mark of the batch appended last — `digest`
    /// the cumulative answer digest after it, `ops` its op count — and
    /// fsyncs it if `sync` is set; otherwise the caller owes that fsync,
    /// through [`sync_handle`](Self::sync_handle), before it acknowledges.
    /// A [`CrashSite::BeforeCommit`] opportunity.
    ///
    /// # Errors
    ///
    /// I/O failures, or the injected crash.
    pub fn commit(
        &mut self,
        digest: u64,
        ops: u32,
        sync: bool,
        crash: &mut CrashInjector,
    ) -> Result<(), DcartError> {
        let before = self.writer.len();
        self.writer.commit(self.next_seq, digest, ops, sync, crash)?;
        self.persist.wal_bytes += self.writer.len() - before;
        self.persist.wal_commits += 1;
        self.next_seq += 1;
        self.uncheckpointed += 1;
        Ok(())
    }

    /// Encodes the checkpoint of `session` as of the next batch, an
    /// ordered walk of its shards, into the log's file buffer, and hands
    /// both to a job that absorbs no segment yet.
    fn capture(&mut self, session: &CttSession) -> Result<CheckpointJob, DcartError> {
        let mut file = std::mem::take(&mut self.file);
        file.clear();
        // Exact: a doubled file buffer stays resident for as long as the
        // log runs.
        file.reserve_exact(session.len() * ENTRY_HINT);
        encode_checkpoint(&mut file, self.next_seq, session.answer_digest(), session.entries())?;
        Ok(CheckpointJob {
            dir: self.dir.clone(),
            retired: None,
            next_seq: self.next_seq,
            file,
            outcome: None,
        })
    }

    /// Captures a checkpoint of `session` as of the next batch, moves
    /// appends onto the spare segment, and returns the job that installs
    /// the checkpoint and empties the retired segment.
    ///
    /// # Errors
    ///
    /// [`DcartError::Recovery`] while the previous job is not finished
    /// (no spare to rotate onto), and encoding failures.
    pub fn rotate(&mut self, session: &CttSession) -> Result<CheckpointJob, DcartError> {
        let Some(spare) = self.spare.take() else {
            return Err(DcartError::Recovery("no spare WAL segment to rotate onto".into()));
        };
        debug_assert!(spare.is_empty(), "rotated onto a segment that holds batches");
        let mut job = self.capture(session)?;
        job.retired = Some(std::mem::replace(&mut self.writer, spare));
        self.uncheckpointed = 0;
        Ok(job)
    }

    /// Takes back a job that has run, or never will: the log its file
    /// buffer and its retired segment as the spare, and — if it installed
    /// — the checkpoint's sequence number and length.
    ///
    /// # Errors
    ///
    /// The job's own: what [`CheckpointJob::run`] failed with. A job that
    /// never ran has none.
    pub fn finish(&mut self, job: CheckpointJob) -> Result<(), DcartError> {
        let CheckpointJob { retired, next_seq, file, outcome, .. } = job;
        if let Some(Ok(())) = outcome {
            self.installed_seq = Some(next_seq);
            self.installed_bytes = file.len() as u64;
        }
        self.spare = retired;
        self.file = file;
        outcome.unwrap_or(Ok(()))
    }

    /// A second handle to the segment appended to, for a thread that
    /// issues the commit fsyncs. A rotation changes the segment.
    pub fn sync_handle(&self) -> std::io::Result<File> {
        self.writer.sync_handle()
    }

    /// Whether a checkpoint is due: `every` batches have been committed
    /// since the last rotation (or the open), or the segment appended to
    /// holds [`checkpoint_trigger_bytes`](Self::checkpoint_trigger_bytes),
    /// whichever comes first. The byte rule keeps the checkpoint traffic
    /// near the log traffic, and a restart's replay near one checkpoint's
    /// worth of log.
    pub fn checkpoint_due(&self, every: u64) -> bool {
        self.uncheckpointed >= every.max(1)
            || self.segment_bytes() >= self.checkpoint_trigger_bytes()
    }

    /// Bytes in the segment appended to, its header included: what was
    /// logged since the last rotation, or what it held at the open.
    pub fn segment_bytes(&self) -> u64 {
        self.writer.len()
    }

    /// The segment size at which a checkpoint is due: the length of the
    /// checkpoint file installed last (read at the open, or written by
    /// the last job finished), and at least 1 MiB.
    pub fn checkpoint_trigger_bytes(&self) -> u64 {
        self.installed_bytes.max(CHECKPOINT_FLOOR_BYTES)
    }

    /// Sequence number of the next batch: every batch before it is
    /// committed.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the live checkpoint stands for every committed batch.
    pub fn checkpointed(&self) -> bool {
        self.installed_seq == Some(self.next_seq)
    }

    /// The log's traffic, with what the jobs run against it counted.
    pub fn persist(&self) -> &PersistStats {
        &self.persist
    }
}

/// The `(key, load-index)` pairs a fresh run seeds its tree with.
fn initial_pairs(keys: &KeySet) -> Vec<(Key, u64)> {
    keys.keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect()
}

// --- the offline driver --------------------------------------------------------

/// Executes `ops` with crash-consistent durability under `dur.dir`,
/// resuming from whatever state the directory already holds.
///
/// On a fresh directory this runs the whole stream; on a directory left by
/// a crash it first recovers ([`DurableLog::open`]), then continues with
/// the not-yet-durable suffix of `ops` (callers pass the *same* key set and
/// full op stream every time — the WAL sequence numbers determine the
/// suffix). Every mark is fsynced before the next batch; a checkpoint,
/// its job run inline, follows the last batch and every batch after which
/// one is [due](DurableLog::checkpoint_due). A planned crash in `crash`
/// is not an error: the outcome carries the site in
/// [`DurableOutcome::crashed`] and the directory holds
/// exactly what a real process death there would leave. The open's
/// absorb of a spare that holds batches (a server directory killed inside
/// a job) fires on `crash` too — a legitimate crash point, though no
/// directory this function writes reaches it.
///
/// The contract the crash matrix asserts cell by cell: crash anywhere,
/// run again to completion, and the final answer and tree digests are an
/// uninterrupted run's.
///
/// # Errors
///
/// Real failures only — I/O, foreign or corrupt files, sequence gaps,
/// divergent replay, a log written with another batch size. Injected
/// crashes come back as `Ok` outcomes.
pub fn run_durable(
    keys: &KeySet,
    ops: &[Op],
    config: &DcartConfig,
    batch_size: usize,
    opts: &ExecOpts,
    dur: &DurabilityConfig,
    crash: &mut CrashInjector,
) -> Result<DurableOutcome, DcartError> {
    if batch_size == 0 {
        return Err(DcartError::InvalidBatchSize);
    }
    let Opened { mut log, mut session, absorb, logged_batch_size } =
        DurableLog::open(&dur.dir, &initial_pairs(keys), config, opts, batch_size)?;
    if let Some(logged) = logged_batch_size.filter(|&logged| logged != batch_size) {
        return Err(DcartError::Recovery(format!(
            "WAL was written with batch size {logged}, run requested {batch_size}"
        )));
    }
    let opened_at = log.next_seq;
    let ran = drive(&mut log, &mut session, absorb, ops, batch_size, dur.checkpoint_every, crash);
    let crashed = ran.err().map(|e| e.injected_crash().ok_or(e)).transpose()?;
    // `finish` merges the shards, which checks the global prefix-free
    // invariant.
    let (answer_digest, tree_digest) = match crashed {
        Some(_) => (0, 0),
        None => (session.answer_digest(), tree_digest(&session.finish()?.0)),
    };
    Ok(DurableOutcome {
        tree_digest,
        answer_digest,
        batches_committed: log.next_seq - opened_at,
        crashed,
        persist: log.persist,
    })
}

/// [`run_durable`] on an opened log: the open's absorb, then every batch
/// of `ops` past the durable prefix, with its checkpoints.
fn drive(
    log: &mut DurableLog,
    session: &mut CttSession,
    absorb: Option<CheckpointJob>,
    ops: &[Op],
    batch_size: usize,
    checkpoint_every: u64,
    crash: &mut CrashInjector,
) -> Result<(), DcartError> {
    if let Some(mut job) = absorb {
        job.run(&mut File::sync_all, crash, &mut log.persist);
        log.finish(job)?;
    }
    // Skip the already-durable prefix: batch `i` always covers ops
    // `[i*batch_size, (i+1)*batch_size)`, so `next_seq` fixes the offset.
    let consumed = (log.next_seq as usize).saturating_mul(batch_size).min(ops.len());
    let mut batches = ops.get(consumed..).unwrap_or_default().chunks(batch_size).peekable();
    while let Some(batch) = batches.next() {
        log.append(batch, crash)?;
        session.execute_batch(batch, &mut NoEvents)?;
        log.commit(session.answer_digest(), batch.len() as u32, true, crash)?;
        if log.checkpoint_due(checkpoint_every) || batches.peek().is_none() {
            let mut job = log.rotate(session)?;
            job.run(&mut File::sync_all, crash, &mut log.persist);
            log.finish(job)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctt::{execute_ctt, TraverseMode};
    use dcart_engine::CrashPlan;
    use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

    /// One thread, level-wise Traverse, slot-order claiming.
    const SERIAL: ExecOpts = ExecOpts { threads: 1, mode: TraverseMode::LevelWise, steal: false };

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dcart-durable-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn workload() -> (KeySet, Vec<Op>) {
        let keys = Workload::Ipgeo.generate(2_000, 7);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: 6_000, mix: Mix::E, seed: 7, ..Default::default() },
        );
        (keys, ops)
    }

    /// Opens `dur.dir` as a restart of a 512-op-batch run over `keys`
    /// does.
    fn reopen(
        keys: &KeySet,
        config: &DcartConfig,
        dur: &DurabilityConfig,
    ) -> Result<Opened, DcartError> {
        DurableLog::open(&dur.dir, &initial_pairs(keys), config, &SERIAL, 512)
    }

    /// Uninterrupted reference digests for the workload.
    fn reference(keys: &KeySet, ops: &[Op], config: &DcartConfig) -> (u64, u64) {
        struct Sink;
        impl CttConsumer for Sink {}
        let (tree, stats, _) = execute_ctt(keys, ops, config, 512, &SERIAL, &mut Sink).unwrap();
        (stats.answer_digest, tree_digest(&tree))
    }

    #[test]
    fn ops_codec_roundtrips_every_kind() {
        let (keys, _) = workload();
        let batch = vec![
            Op { kind: OpKind::Read, key: keys.keys[0].clone(), value: 0 },
            Op { kind: OpKind::Update, key: keys.keys[1].clone(), value: 42 },
            Op { kind: OpKind::Insert, key: Key::from_u64(77), value: 7 },
            Op { kind: OpKind::Remove, key: keys.keys[2].clone(), value: 0 },
            Op { kind: OpKind::Scan, key: keys.keys[3].clone(), value: 100 },
        ];
        let bytes = encode_ops(&batch);
        let back = decode_ops(&bytes).unwrap();
        assert_eq!(back.len(), batch.len());
        for (a, b) in batch.iter().zip(&back) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.key, b.key);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn ops_codec_rejects_garbage_without_panicking() {
        assert!(decode_ops(&[]).is_err());
        assert!(decode_ops(&[1, 0, 0, 0]).is_err(), "count promises an op that is not there");
        assert!(decode_ops(&[1, 0, 0, 0, 9]).is_err(), "unknown kind");
        let mut good = encode_ops(&[Op { kind: OpKind::Read, key: Key::from_u64(1), value: 0 }]);
        good.push(0xAA);
        assert!(decode_ops(&good).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn durable_run_matches_uninterrupted_execution() {
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let (ref_answer, ref_tree) = reference(&keys, &ops, &config);
        let dur = DurabilityConfig { dir: tmpdir("clean"), checkpoint_every: 4 };
        let mut crash = CrashInjector::counting();
        let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        assert_eq!(out.crashed, None);
        assert_eq!(out.answer_digest, ref_answer, "answer digest must match plain execution");
        assert_eq!(out.tree_digest, ref_tree, "tree digest must match plain execution");
        assert_eq!(out.batches_committed, 12, "6000 ops / 512 = 12 batches");
        assert!(out.persist.checkpoints >= 1);
        assert!(out.persist.wal_bytes > 0);
        assert!(out.persist.write_amplification() >= 1.0);
    }

    #[test]
    fn resumed_executor_is_digest_identical_to_one_shot() {
        // The seam invariant under the whole design: split anywhere,
        // resume from the merged tree, digests match.
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let (ref_answer, ref_tree) = reference(&keys, &ops, &config);
        for split in [512usize, 2048, 4096] {
            struct Sink;
            impl CttConsumer for Sink {}
            let (t1, s1, _) =
                execute_ctt(&keys, &ops[..split], &config, 512, &SERIAL, &mut Sink).unwrap();
            let pairs: Vec<(Key, u64)> = t1.iter().map(|(k, &v)| (k.clone(), v)).collect();
            let two = ExecOpts { threads: 2, ..SERIAL };
            let (t2, s2, _) = CttSession::from_pairs(&pairs, &config, &two, 512, s1.answer_digest)
                .unwrap()
                .execute_all(&ops[split..], &mut Sink)
                .unwrap();
            assert_eq!(s2.answer_digest, ref_answer, "split at {split}");
            assert_eq!(tree_digest(&t2), ref_tree, "split at {split}");
        }
    }

    #[test]
    fn every_crash_site_recovers_to_identical_digests() {
        // One opportunity per site (a mini crash matrix; the full matrix
        // with per-offset sweeps lives in crates/bench).
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let (ref_answer, ref_tree) = reference(&keys, &ops, &config);
        for site in CrashSite::ALL {
            let dur = DurabilityConfig {
                dir: tmpdir(&format!("site-{}", site.name())),
                checkpoint_every: 4,
            };
            let mut crash = CrashInjector::for_plan(CrashPlan { site, at: 1, seed: 5 });
            let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
            assert_eq!(out.crashed, Some(site), "the planned crash must fire");
            // Restart: recover + finish.
            let mut none = CrashInjector::counting();
            let resumed = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut none).unwrap();
            assert_eq!(resumed.crashed, None);
            assert_eq!(resumed.answer_digest, ref_answer, "{}: answers diverged", site.name());
            assert_eq!(resumed.tree_digest, ref_tree, "{}: tree diverged", site.name());
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let dur = DurabilityConfig { dir: tmpdir("torn"), checkpoint_every: 4 };
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::BeforeCommit, at: 2, seed: 9 });
        let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        assert_eq!(out.crashed, Some(CrashSite::BeforeCommit));
        let Opened { log, .. } = reopen(&keys, &config, &dur).unwrap();
        let st = log.persist();
        assert!(st.torn_bytes_truncated > 0, "the uncommitted batch record is torn residue");
        assert_eq!(st.replayed_batches, 2, "exactly the two committed batches replay");
        let rescan = wal::scan(&dur.dir.join(WAL_FILE)).unwrap();
        assert_eq!(rescan.torn_bytes, 0, "recovery truncated the tail in place");
    }

    #[test]
    fn batches_committed_after_a_checkpoint_replay_from_the_wal() {
        // Regression for the WAL `reset` cursor bug: after a checkpoint
        // resets a segment, the commits appended to it later must land at
        // the header (not beyond a zero-filled hole at the old offset) so a
        // later recovery replays them instead of counting them as torn.
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        // checkpoint_every = 4: the checkpoint at seq 4 rotates onto the
        // second segment and resets the first; the one at seq 8 rotates
        // back onto the first. Crashing mid-record at opportunity 10
        // leaves seqs 8–9 committed in the reset segment.
        let dur = DurabilityConfig { dir: tmpdir("post-ckpt-replay"), checkpoint_every: 4 };
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::MidRecord, at: 10, seed: 21 });
        let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        assert_eq!(out.crashed, Some(CrashSite::MidRecord));
        let ckpt = read_checkpoint_pairs(&dur.dir).unwrap();
        assert_eq!(ckpt.map(|c| c.next_seq), Some(8), "the seq-8 checkpoint must load");
        let Opened { log, .. } = reopen(&keys, &config, &dur).unwrap();
        assert_eq!(log.next_seq(), 10, "both post-checkpoint commits are durable");
        assert_eq!(log.persist().replayed_batches, 2, "seqs 8 and 9 replay from the WAL");
        assert!(log.persist().torn_bytes_truncated > 0, "only the seq-10 record prefix is torn");
        let first = wal::scan(&dur.dir.join(WAL_FILE)).unwrap();
        assert_eq!(first.batches.iter().map(|b| b.seq).collect::<Vec<_>>(), [8, 9]);
        assert_eq!(first.torn_bytes, 0, "recovery cut the tail in the reset segment");
    }

    #[test]
    fn recovery_detects_divergent_replay() {
        // Corrupt a committed batch's digest field indirectly: rewrite a
        // commit record with a wrong digest but a valid checksum. Verified
        // replay must fail with a typed error, not return wrong state.
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let dir = tmpdir("divergent");
        let dur = DurabilityConfig { dir: dir.clone(), checkpoint_every: u64::MAX };
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::BeforeCommit, at: 3, seed: 1 });
        let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        assert_eq!(out.crashed, Some(CrashSite::BeforeCommit));
        // Forge: truncate the tail, then append a commit for a batch that
        // never ran with a bogus digest.
        let wal_path = dir.join(WAL_FILE);
        let scan = wal::scan(&wal_path).unwrap();
        let file = fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        file.set_len(scan.valid_len).unwrap();
        let mut w = WalWriter::open_append(&wal_path, scan.valid_len).unwrap();
        let mut none = CrashInjector::counting();
        let forged = encode_ops(&ops[3 * 512..4 * 512]);
        w.append_batch(3, &forged, &mut none).unwrap();
        w.commit(3, 0xDEAD_BEEF, 512, true, &mut none).unwrap();
        let err = reopen(&keys, &config, &dur).err().expect("divergent replay must fail");
        assert!(matches!(err, DcartError::Recovery(_)), "{err}");
        assert!(err.to_string().contains("digest"), "{err}");
    }

    /// Every file under `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_refused_directory_is_left_byte_identical() {
        // Crash residue in every form the open cleans up — a stray
        // checkpoint.tmp and a torn tail — beside a commit mark whose
        // digest no replay reproduces. The open must refuse before it
        // writes anything.
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let dir = tmpdir("refused-untouched");
        let dur = DurabilityConfig { dir: dir.clone(), checkpoint_every: u64::MAX };
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::BeforeCommit, at: 3, seed: 1 });
        let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        assert_eq!(out.crashed, Some(CrashSite::BeforeCommit));
        let wal_path = dir.join(WAL_FILE);
        assert!(wal::scan(&wal_path).unwrap().torn_bytes > 0, "batch 3 has no commit mark");
        // Rewrite batch 1's commit digest under a valid checksum. Frame:
        // kind (1), seq (8), len (4), payload, checksum (8).
        let mut bytes = fs::read(&wal_path).unwrap();
        let mut off = 16;
        loop {
            let plen = u32::from_le_bytes(bytes[off + 9..off + 13].try_into().unwrap()) as usize;
            let body_end = off + 13 + plen;
            if bytes[off] == 2 && bytes[off + 1..off + 9] == 1u64.to_le_bytes() {
                bytes[off + 13] ^= 1;
                let sum = wal::checksum(&bytes[off..body_end]);
                bytes[body_end..body_end + 8].copy_from_slice(&sum.to_le_bytes());
                break;
            }
            off = body_end + 8;
        }
        fs::write(&wal_path, &bytes).unwrap();
        fs::write(dir.join(CHECKPOINT_TMP), b"a checkpoint cut short").unwrap();

        let before = dir_bytes(&dir);
        let err = reopen(&keys, &config, &dur).err().expect("a forged digest must be refused");
        assert!(matches!(err, DcartError::Recovery(_)), "{err}");
        assert!(err.to_string().contains("replayed batch 1"), "{err}");
        assert!(before == dir_bytes(&dir), "the refused open changed the directory");
    }

    #[test]
    fn wrong_batch_size_on_resume_is_rejected() {
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let dur = DurabilityConfig { dir: tmpdir("batchsize"), checkpoint_every: 4 };
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::MidRecord, at: 4, seed: 2 });
        let out = run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        assert_eq!(out.crashed, Some(CrashSite::MidRecord));
        let mut none = CrashInjector::counting();
        let err = run_durable(&keys, &ops, &config, 256, &SERIAL, &dur, &mut none).unwrap_err();
        assert!(matches!(err, DcartError::Recovery(_)), "{err}");
        assert!(err.to_string().contains("batch size"), "{err}");
    }

    #[test]
    fn recovery_without_any_files_is_the_initial_state() {
        let (keys, _) = workload();
        let config = DcartConfig::default();
        let dur = DurabilityConfig { dir: tmpdir("fresh"), checkpoint_every: 4 };
        let Opened { log, session, absorb, logged_batch_size } =
            reopen(&keys, &config, &dur).unwrap();
        assert_eq!(log.next_seq(), 0);
        assert_eq!(log.persist().replayed_batches, 0);
        assert!(absorb.is_none() && logged_batch_size.is_none());
        assert!(read_checkpoint_pairs(&dur.dir).unwrap().is_none());
        assert_eq!(session.len(), keys.keys.len());
    }

    #[test]
    fn checkpoint_files_reject_corruption_with_typed_errors() {
        let (keys, ops) = workload();
        let config = DcartConfig::default();
        let dur = DurabilityConfig { dir: tmpdir("ckpt-corrupt"), checkpoint_every: 4 };
        let mut crash = CrashInjector::counting();
        run_durable(&keys, &ops, &config, 512, &SERIAL, &dur, &mut crash).unwrap();
        let path = dur.dir.join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = reopen(&keys, &config, &dur).err().expect("a flipped bit must be noticed");
        assert!(
            matches!(err, DcartError::Recovery(_) | DcartError::Snapshot(_)),
            "bit flip must be a typed error: {err}"
        );
    }

    /// A log opened under `dir` over `n` keys `0..n` (8 bytes each), its
    /// session, and a batch of 64 updates to the first keys: every record
    /// of it is the same size.
    fn open_keys(dir: &Path, n: u64) -> (DurableLog, CttSession, Vec<Op>) {
        let pairs: Vec<(Key, u64)> = (0..n).map(|i| (Key::from_u64(i), i)).collect();
        let Opened { log, session, absorb, .. } =
            DurableLog::open(dir, &pairs, &DcartConfig::default(), &SERIAL, 64).unwrap();
        assert!(absorb.is_none());
        let batch = (0..64).map(|i| Op { kind: OpKind::Update, key: Key::from_u64(i), value: i });
        (log, session, batch.collect())
    }

    /// Rotates, runs the job here and takes it back.
    fn checkpoint_now(log: &mut DurableLog, session: &CttSession) {
        let mut job = log.rotate(session).unwrap();
        job.run(&mut File::sync_all, &mut CrashInjector::counting(), &mut log.persist);
        log.finish(job).unwrap();
    }

    /// Appends, executes and commits `batch`, its mark left unsynced.
    fn commit_one(log: &mut DurableLog, session: &mut CttSession, batch: &[Op]) {
        let mut crash = CrashInjector::counting();
        log.append(batch, &mut crash).unwrap();
        session.execute_batch(batch, &mut NoEvents).unwrap();
        log.commit(session.answer_digest(), batch.len() as u32, false, &mut crash).unwrap();
    }

    #[test]
    fn the_batch_cap_makes_a_checkpoint_due_at_exactly_every() {
        let (mut log, mut session, batch) = open_keys(&tmpdir("due-every"), 1_000);
        for committed in 1..=5 {
            commit_one(&mut log, &mut session, &batch);
            assert_eq!(log.checkpoint_due(5), committed == 5, "after {committed} batches");
            assert!(!log.checkpoint_due(u64::MAX), "far below the byte trigger");
        }
        checkpoint_now(&mut log, &session);
        assert!(!log.checkpoint_due(5), "a rotation restarts the count");
        for _ in 0..5 {
            commit_one(&mut log, &mut session, &batch);
        }
        assert!(log.checkpoint_due(5));
    }

    #[test]
    fn the_byte_rule_fires_at_the_first_commit_that_crosses_the_trigger() {
        let (mut log, mut session, batch) = open_keys(&tmpdir("due-bytes"), 1_000);
        // A first checkpoint, whose file sets the trigger.
        commit_one(&mut log, &mut session, &batch);
        checkpoint_now(&mut log, &session);
        let trigger = log.checkpoint_trigger_bytes();
        let empty = log.segment_bytes();
        commit_one(&mut log, &mut session, &batch);
        let per_batch = log.segment_bytes() - empty;
        // The commit that brings the segment to the trigger, and none before.
        let due_at = (trigger - empty).div_ceil(per_batch);
        for committed in 1..due_at {
            assert!(!log.checkpoint_due(u64::MAX), "due early, after {committed} batches");
            commit_one(&mut log, &mut session, &batch);
        }
        assert!(log.segment_bytes() >= trigger && log.segment_bytes() - per_batch < trigger);
        assert!(log.checkpoint_due(u64::MAX), "not due after {due_at} batches");
        checkpoint_now(&mut log, &session);
        assert_eq!(log.segment_bytes(), empty, "appends moved onto the empty spare");
        assert!(!log.checkpoint_due(u64::MAX));
    }

    #[test]
    fn without_a_large_enough_checkpoint_the_floor_is_the_trigger() {
        let dir = tmpdir("due-floor");
        let (mut log, mut session, batch) = open_keys(&dir, 1_000);
        assert_eq!(log.checkpoint_trigger_bytes(), CHECKPOINT_FLOOR_BYTES, "no checkpoint");
        commit_one(&mut log, &mut session, &batch);
        checkpoint_now(&mut log, &session);
        let installed = fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
        assert!(installed < CHECKPOINT_FLOOR_BYTES);
        assert_eq!(log.checkpoint_trigger_bytes(), CHECKPOINT_FLOOR_BYTES, "a small checkpoint");
    }

    #[test]
    fn the_trigger_is_the_installed_file_in_process_and_after_a_restart() {
        let dir = tmpdir("due-restart");
        let (mut log, mut session, batch) = open_keys(&dir, 80_000);
        commit_one(&mut log, &mut session, &batch);
        checkpoint_now(&mut log, &session);
        let installed = fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
        assert!(installed > CHECKPOINT_FLOOR_BYTES, "the file must outgrow the floor");
        assert_eq!(log.checkpoint_trigger_bytes(), installed, "set by the finished job");
        commit_one(&mut log, &mut session, &batch);
        drop((log, session));
        let (log, _, _) = open_keys(&dir, 80_000);
        assert_eq!(log.persist().replayed_batches, 1);
        assert_eq!(log.checkpoint_trigger_bytes(), installed, "read back at the open");
    }

    /// A small real checkpoint file: `(directory, its bytes, its tree)`.
    fn small_checkpoint(name: &str) -> (PathBuf, Vec<u8>, Art<u64>) {
        let dir = tmpdir(name);
        let mut tree = Art::new();
        for v in 0..40u64 {
            tree.insert(Key::from_u64(v.wrapping_mul(0x9E37_79B9_7F4A_7C15)), v).unwrap();
        }
        tree.insert(Key::from_str_bytes("a longer, string-shaped key"), 41).unwrap();
        let mut persist = PersistStats::default();
        write_checkpoint(&dir, 7, 0xD16E57, &tree, &mut CrashInjector::counting(), &mut persist)
            .unwrap();
        let bytes = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(persist.checkpoint_bytes, bytes.len() as u64);
        (dir, bytes, tree)
    }

    #[test]
    fn checkpoint_file_roundtrips_through_both_readers() {
        let (dir, bytes, tree) = small_checkpoint("ckpt-roundtrip");
        assert_eq!(bytes[..8], CHECKPOINT_MAGIC);
        let (seq, digest, back) = read_checkpoint(&dir).unwrap().unwrap();
        assert_eq!((seq, digest), (7, 0xD16E57));
        assert!(back.iter().eq(tree.iter()));
        let ckpt = read_checkpoint_pairs(&dir).unwrap().unwrap();
        assert_eq!((ckpt.next_seq, ckpt.digest), (7, 0xD16E57));
        assert!(ckpt.pairs.iter().map(|(k, v)| (k, v)).eq(tree.iter()));
        assert!(read_checkpoint(&tmpdir("ckpt-absent")).unwrap().is_none());
    }

    #[test]
    fn every_bitflip_of_a_checkpoint_file_is_a_typed_error() {
        // Prelude, container header, count, entries, and both checksums:
        // no bit of the file may flip unnoticed, and none may panic.
        let (dir, bytes, _) = small_checkpoint("ckpt-bitflips");
        let path = dir.join(CHECKPOINT_FILE);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                fs::write(&path, &corrupt).unwrap();
                let err = read_checkpoint(&dir).expect_err("flipped bit went unnoticed");
                assert!(
                    matches!(err, DcartError::Recovery(_) | DcartError::Snapshot(_)),
                    "byte {i} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_a_checkpoint_file_is_a_typed_error() {
        let (dir, bytes, _) = small_checkpoint("ckpt-truncations");
        let path = dir.join(CHECKPOINT_FILE);
        for end in 0..bytes.len() {
            fs::write(&path, &bytes[..end]).unwrap();
            let err = read_checkpoint(&dir).expect_err("truncated file went unnoticed");
            assert!(
                matches!(err, DcartError::Recovery(_) | DcartError::Snapshot(_)),
                "cut at {end}: {err}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        fs::write(&path, &longer).unwrap();
        assert!(read_checkpoint(&dir).is_err(), "a trailing byte is not a checkpoint either");
    }

    #[test]
    fn other_snapshot_versions_are_named_not_guessed_at() {
        // Version 1 (the JSON payload) and a future 3: the error says
        // which version the file carries, whatever its checksums say.
        let (dir, bytes, _) = small_checkpoint("ckpt-versions");
        let path = dir.join(CHECKPOINT_FILE);
        for version in [1u32, 3] {
            let mut other = bytes.clone();
            let at = CHECKPOINT_PRELUDE + 8;
            other[at..at + 4].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &other).unwrap();
            let err = read_checkpoint(&dir).unwrap_err();
            assert!(
                matches!(err, DcartError::Snapshot(dcart_art::SnapshotError::UnsupportedVersion(v)) if v == version),
                "{err}"
            );
        }
    }
}
