//! Write-ahead log: append-only, length-prefixed, checksummed batch
//! records with torn-tail detection.
//!
//! The durability layer in `crates/core` logs every CTT batch here *before*
//! the batch's effects become externally visible. One committed batch is
//! two consecutive records:
//!
//! ```text
//! ┌──────┬─────┬─────┬─────────┬───────┐
//! │ kind │ seq │ len │ payload │ crc64 │
//! └──────┴─────┴─────┴─────────┴───────┘
//!   1 B    8 B   4 B    len B     8 B
//! ```
//!
//! * a **batch record** (`kind = 1`) whose payload is the encoded
//!   operations of batch `seq`, appended at the batch boundary;
//! * a **commit record** (`kind = 2`, the commit mark) whose 12-byte
//!   payload carries the cumulative answer digest after the batch and the
//!   batch's operation count, appended only after every event of the batch
//!   has been emitted. The batch may be acknowledged once an fsync that
//!   *began after* the mark was written has returned: [`WalWriter::commit`]
//!   with `sync` set issues that fsync itself; a caller that passes
//!   `sync = false` owes one, on this handle or on a
//!   [`WalWriter::sync_handle`] from another thread — where one fsync then
//!   covers every mark written before it began.
//!
//! A batch is durable if and only if its commit record is intact. The
//! scanner walks records front to back, verifying each checksum; the first
//! incomplete, corrupt, or uncommitted record ends the valid prefix and
//! everything after it is the **torn tail**, reported rather than
//! replayed; whoever appends next cuts it first (see
//! [`WalWriter::open_append`]). The commit digest gives recovery a
//! per-batch ground truth: replaying a batch must reproduce exactly the
//! digest its commit record promised.
//!
//! Simulated crashes ([`CrashInjector`])
//! leave the file in precisely the state a real process death would: a
//! deterministic prefix of a record for [`CrashSite::MidRecord`], a
//! committed-but-unmarked batch for [`CrashSite::BeforeCommit`].
//!
//! A log may be one of a *pair of segments* (`dcart-server` appends to
//! one while a checkpoint absorbs the other, then truncates that one with
//! [`WalWriter::reset`]); a reader then has to see both. Version 2 of the
//! header says so, and it is the only version [`scan`] reads: a build
//! that knows only single-file logs refuses the directory instead of
//! replaying half of it, and this one refuses a version-1 file.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::faults::{CrashInjector, CrashSite};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"DCARTWAL";

/// The on-disk format version: 2, a file that may be one of a pair of
/// segments. It is the only version read.
pub const WAL_VERSION: u32 = 2;

/// Header bytes: magic + version + batch size.
const HEADER_LEN: u64 = 16;

/// Fixed bytes of a record frame around the payload.
const FRAME_LEN: usize = 1 + 8 + 4 + 8;

const KIND_BATCH: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// Commit payload: answer digest (8) + ops in batch (4).
const COMMIT_PAYLOAD_LEN: usize = 12;

/// Errors of the WAL layer. Torn tails are *not* errors — they are normal
/// crash residue, reported via [`WalScan`].
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`] (or is shorter than a
    /// header): not a WAL, refuse to touch it.
    BadMagic,
    /// The header carries a format version other than [`WAL_VERSION`].
    UnsupportedVersion(u32),
    /// A planned crash fired: the simulated process is dead and the file
    /// holds exactly what a real crash at this site would leave.
    InjectedCrash(CrashSite),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadMagic => write!(f, "not a WAL file (bad magic)"),
            WalError::UnsupportedVersion(v) => {
                write!(f, "WAL format version {v} is not one this build reads (only {WAL_VERSION})")
            }
            WalError::InjectedCrash(site) => {
                write!(f, "injected crash at {}", site.name())
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The record checksum: an FNV-1a-shaped hash of a byte slice (FNV-64's
/// offset basis, xor a byte in, then multiply). Not cryptographic; catches
/// torn writes and bit rot, which is all a WAL checksum is for.
///
/// It is not FNV-1a: the multiplier is `0x1000_0000_01b3` = 2^44 + 0x1b3,
/// where FNV-64's prime is `0x100_0000_01b3` = 2^40 + 0x1b3. Each step is
/// still a bijection of the state, so a single corrupted byte always
/// changes the sum. The constant stays: every WAL record and checkpoint
/// file on disk is checked with it.
#[inline]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Fsyncs a directory, making the creations and renames inside it
/// durable: a file's own `fsync` covers its bytes, not the directory entry
/// that names it. Only Unix can open a directory as a file; elsewhere
/// this is a no-op.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// One durably committed batch, as read back by [`scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalBatch {
    /// Global batch sequence number.
    pub seq: u64,
    /// The batch-record payload (encoded operations).
    pub payload: Vec<u8>,
    /// Cumulative answer digest after this batch, from the commit record —
    /// the ground truth a verified replay must reproduce.
    pub digest: u64,
    /// Operations in the batch, from the commit record.
    pub ops: u32,
}

/// Result of scanning a WAL file front to back.
#[derive(Clone, Debug)]
pub struct WalScan {
    /// Every durably committed batch, in sequence order.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix (header + committed records).
    pub valid_len: u64,
    /// Bytes past the valid prefix: a torn record, a batch without its
    /// commit mark, or corruption. Zero on a cleanly closed WAL.
    pub torn_bytes: u64,
    /// The executor batch size recorded at WAL creation (recovery must
    /// rebatch the replay identically).
    pub batch_size: u32,
}

/// Appends length-prefixed, checksummed records to a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    len: u64,
    dead: bool,
    /// The record being written, kept for its capacity.
    rec: Vec<u8>,
}

/// Serializes one record frame into `rec` (without writing it).
fn encode_record(rec: &mut Vec<u8>, kind: u8, seq: u64, payload: &[u8]) {
    rec.clear();
    rec.reserve(FRAME_LEN + payload.len());
    rec.push(kind);
    rec.extend_from_slice(&seq.to_le_bytes());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    let crc = checksum(rec);
    rec.extend_from_slice(&crc.to_le_bytes());
}

impl WalWriter {
    /// Creates (truncating) a WAL at `path` and syncs its header and the
    /// directory entry that names it.
    pub fn create(path: &Path, batch_size: u32) -> Result<Self, WalError> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&batch_size.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        // A bare file name has the empty parent: the current directory.
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        sync_dir(parent.unwrap_or(Path::new(".")))?;
        Ok(WalWriter { file, len: HEADER_LEN, dead: false, rec: Vec::new() })
    }

    /// Opens an existing WAL for appending after `valid_len` bytes, as a
    /// [`scan`] reported them. The caller has cut the torn tail first:
    /// this only positions the writer, and a tail left in place would
    /// outlive records shorter than it.
    pub fn open_append(path: &Path, valid_len: u64) -> Result<Self, WalError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter { file, len: valid_len, dead: false, rec: Vec::new() })
    }

    /// Bytes appended so far (including the header).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if nothing but the header has been written.
    pub fn is_empty(&self) -> bool {
        self.len <= HEADER_LEN
    }

    /// A second handle to the log file, for a thread that issues the
    /// fsyncs while this writer keeps appending. It names the same open
    /// file, so it stays good across [`WalWriter::reset`].
    pub fn sync_handle(&self) -> std::io::Result<File> {
        self.file.try_clone()
    }

    fn check_dead(&self) -> Result<(), WalError> {
        if self.dead {
            // The simulated process already died; nothing more reaches disk.
            return Err(WalError::Io(std::io::Error::other("writer is dead after a crash")));
        }
        Ok(())
    }

    /// Appends the ops record of batch `seq`. A [`CrashSite::MidRecord`]
    /// opportunity: when the planned crash fires, a deterministic prefix of
    /// the record lands on disk and the writer dies.
    pub fn append_batch(
        &mut self,
        seq: u64,
        payload: &[u8],
        crash: &mut CrashInjector,
    ) -> Result<(), WalError> {
        self.check_dead()?;
        encode_record(&mut self.rec, KIND_BATCH, seq, payload);
        if crash.should_crash(CrashSite::MidRecord) {
            let torn = crash.torn_len(self.rec.len());
            self.file.write_all(&self.rec[..torn])?;
            self.file.sync_all()?;
            self.dead = true;
            return Err(WalError::InjectedCrash(CrashSite::MidRecord));
        }
        self.file.write_all(&self.rec)?;
        self.len += self.rec.len() as u64;
        Ok(())
    }

    /// Appends (and fsyncs, when `sync` is set) the commit mark of batch
    /// `seq`, carrying the cumulative answer digest and the batch's op
    /// count. A [`CrashSite::BeforeCommit`] opportunity: when the planned
    /// crash fires, the ops record stays on disk without its mark — the
    /// batch must be truncated, not replayed.
    pub fn commit(
        &mut self,
        seq: u64,
        digest: u64,
        ops: u32,
        sync: bool,
        crash: &mut CrashInjector,
    ) -> Result<(), WalError> {
        self.check_dead()?;
        if crash.should_crash(CrashSite::BeforeCommit) {
            self.file.sync_all()?;
            self.dead = true;
            return Err(WalError::InjectedCrash(CrashSite::BeforeCommit));
        }
        let mut payload = [0u8; COMMIT_PAYLOAD_LEN];
        payload[..8].copy_from_slice(&digest.to_le_bytes());
        payload[8..].copy_from_slice(&ops.to_le_bytes());
        encode_record(&mut self.rec, KIND_COMMIT, seq, &payload);
        self.file.write_all(&self.rec)?;
        self.len += self.rec.len() as u64;
        if sync {
            self.file.sync_all()?;
        }
        Ok(())
    }

    /// Truncates the log back to its header (after a checkpoint has
    /// absorbed every batch in it) and syncs.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.check_dead()?;
        self.file.set_len(HEADER_LEN)?;
        // Rewind the cursor explicitly: `set_len` does not move it, and a
        // write-mode file would otherwise punch a zero-filled hole from the
        // header to the old offset on the next append (append-mode files
        // ignore the cursor, but `create` and `open_append` open in write
        // mode).
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.file.sync_all()?;
        self.len = HEADER_LEN;
        Ok(())
    }
}

/// Reads little-endian integers out of a byte slice without panicking.
fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    let b = bytes.get(off..off + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    let b = bytes.get(off..off + 8)?;
    Some(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Scans a WAL file front to back, collecting every durably committed
/// batch. The scan never fails on torn or corrupt *records* — the valid
/// prefix simply ends there and `torn_bytes` reports the rest. It fails
/// only on files that are not WALs at all ([`WalError::BadMagic`]) or
/// carry another format version ([`WalError::UnsupportedVersion`]).
pub fn scan(path: &Path) -> Result<WalScan, WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = read_u32(&bytes, 8).unwrap_or(0);
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let batch_size = read_u32(&bytes, 12).unwrap_or(0);

    let mut batches = Vec::new();
    let mut off = HEADER_LEN as usize;
    // End of the last fully committed batch: the valid prefix.
    let mut valid = off;
    // An intact batch record awaiting its commit mark.
    let mut pending: Option<(u64, Vec<u8>)> = None;

    loop {
        if off == bytes.len() && pending.is_none() {
            break; // clean end
        }
        // Frame: kind(1) seq(8) len(4) payload crc(8).
        let Some(kind) = bytes.get(off).copied() else { break };
        let (Some(seq), Some(plen)) = (read_u64(&bytes, off + 1), read_u32(&bytes, off + 9)) else {
            break;
        };
        let plen = plen as usize;
        let body_end = off + 13 + plen;
        let Some(stored_crc) = read_u64(&bytes, body_end) else { break };
        // `read_u64` succeeding implies the body range is in bounds.
        if checksum(&bytes[off..body_end]) != stored_crc {
            break;
        }
        let payload = &bytes[off + 13..body_end];
        match (kind, pending.take()) {
            (KIND_BATCH, None) => {
                pending = Some((seq, payload.to_vec()));
            }
            (KIND_COMMIT, Some((pseq, ppayload))) if pseq == seq && plen == COMMIT_PAYLOAD_LEN => {
                let digest = read_u64(payload, 0).unwrap_or(0);
                let ops = read_u32(payload, 8).unwrap_or(0);
                batches.push(WalBatch { seq, payload: ppayload, digest, ops });
                valid = body_end + 8;
            }
            // Anything else — a commit without its batch, a batch while one
            // is pending, an unknown kind, a mis-sized commit — is
            // structurally impossible for the sequential writer, so it can
            // only be tail corruption: stop at the last committed record.
            _ => break,
        }
        off = body_end + 8;
    }

    Ok(WalScan {
        batches,
        valid_len: valid as u64,
        torn_bytes: bytes.len() as u64 - valid as u64,
        batch_size,
    })
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use crate::faults::CrashPlan;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dcart-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Cuts the torn tail `s` reported, as recovery does before it
    /// appends.
    fn cut(path: &Path, s: &WalScan) {
        let file = OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(s.valid_len).unwrap();
        file.sync_all().unwrap();
    }

    #[test]
    fn roundtrip_commits_and_scans() {
        let path = tmp("roundtrip.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 512).unwrap();
        for seq in 0..5u64 {
            w.append_batch(seq, &[seq as u8; 20], &mut crash).unwrap();
            w.commit(seq, seq * 1000 + 7, 20, true, &mut crash).unwrap();
        }
        let s = scan(&path).unwrap();
        assert_eq!(s.batch_size, 512);
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(s.batches.len(), 5);
        for (i, b) in s.batches.iter().enumerate() {
            assert_eq!(b.seq, i as u64);
            assert_eq!(b.payload, vec![i as u8; 20]);
            assert_eq!(b.digest, i as u64 * 1000 + 7);
            assert_eq!(b.ops, 20);
        }
        assert_eq!(s.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn uncommitted_batch_is_torn_tail() {
        let path = tmp("uncommitted.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, b"committed", &mut crash).unwrap();
        w.commit(0, 1, 1, true, &mut crash).unwrap();
        w.append_batch(1, b"never committed", &mut crash).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.batches.len(), 1, "uncommitted batch must not be returned");
        assert!(s.torn_bytes > 0);
        cut(&path, &s);
        // The cut file scans clean and accepts appends.
        assert_eq!(scan(&path).unwrap().torn_bytes, 0);
        let mut w = WalWriter::open_append(&path, s.valid_len).unwrap();
        w.append_batch(1, b"retry", &mut crash).unwrap();
        w.commit(1, 2, 1, true, &mut crash).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.batches.len(), 2);
        assert_eq!(s.torn_bytes, 0);
    }

    #[test]
    fn injected_mid_record_crash_leaves_detectable_torn_tail() {
        let path = tmp("midrecord.wal");
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::MidRecord, at: 1, seed: 3 });
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, &[1u8; 100], &mut crash).unwrap();
        w.commit(0, 11, 100, true, &mut crash).unwrap();
        let err = w.append_batch(1, &[2u8; 100], &mut crash).unwrap_err();
        assert!(matches!(err, WalError::InjectedCrash(CrashSite::MidRecord)), "{err}");
        // The writer is dead; further writes fail.
        assert!(w.commit(1, 0, 0, false, &mut crash).is_err());
        let s = scan(&path).unwrap();
        assert!(s.torn_bytes > 0, "the record prefix is torn");
        assert_eq!(s.batches.len(), 1, "the torn record must not surface");
        assert_eq!(s.batches[0].digest, 11);
    }

    #[test]
    fn injected_before_commit_crash_drops_the_batch() {
        let path = tmp("beforecommit.wal");
        let mut crash =
            CrashInjector::for_plan(CrashPlan { site: CrashSite::BeforeCommit, at: 0, seed: 3 });
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, &[7u8; 64], &mut crash).unwrap();
        let err = w.commit(0, 5, 64, true, &mut crash).unwrap_err();
        assert!(matches!(err, WalError::InjectedCrash(CrashSite::BeforeCommit)), "{err}");
        let s = scan(&path).unwrap();
        assert!(s.batches.is_empty(), "batch without a commit mark must not surface");
        assert!(s.torn_bytes > 0, "the unmarked batch record is the torn tail");
        cut(&path, &s);
        let rescanned = scan(&path).unwrap();
        assert_eq!(rescanned.torn_bytes, 0, "the cut file scans clean");
    }

    #[test]
    fn bitflip_in_payload_ends_the_valid_prefix() {
        let path = tmp("bitflip.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, &[1u8; 50], &mut crash).unwrap();
        w.commit(0, 1, 50, true, &mut crash).unwrap();
        let good_len = w.len();
        w.append_batch(1, &[2u8; 50], &mut crash).unwrap();
        w.commit(1, 2, 50, true, &mut crash).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip_at = good_len as usize + 20; // inside batch 1's payload
        bytes[flip_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.batches.len(), 1, "corrupt record must end the prefix");
        assert_eq!(s.valid_len, good_len);
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        // Chop the file after every byte of the second batch's records;
        // the scan must always return exactly batch 0 and report the rest
        // as torn — no truncation point may panic, loop, or resurrect a
        // partial batch.
        let path = tmp("everybyte.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, &[3u8; 9], &mut crash).unwrap();
        w.commit(0, 9, 9, true, &mut crash).unwrap();
        let good_len = w.len();
        w.append_batch(1, &[4u8; 9], &mut crash).unwrap();
        w.commit(1, 10, 9, true, &mut crash).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let cut = tmp("everybyte-cut.wal");
        for end in good_len as usize..full.len() {
            std::fs::write(&cut, &full[..end]).unwrap();
            let s = scan(&cut).unwrap();
            assert_eq!(s.batches.len(), 1, "cut at {end}");
            assert_eq!(s.valid_len, good_len, "cut at {end}");
            assert_eq!(s.torn_bytes, (end - good_len as usize) as u64, "cut at {end}");
        }
    }

    #[test]
    fn non_wal_files_are_rejected_with_typed_errors() {
        let path = tmp("notawal.wal");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(scan(&path), Err(WalError::BadMagic)));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(scan(&path), Err(WalError::BadMagic)));
        // Future version: magic ok, version bumped.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&64u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(scan(&path), Err(WalError::UnsupportedVersion(99))));
    }

    #[test]
    fn a_version_1_log_is_refused_and_left_as_it_was() {
        let path = tmp("version1.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, &[5u8; 12], &mut crash).unwrap();
        w.commit(0, 55, 12, true, &mut crash).unwrap();
        drop(w);
        // What a single-file build wrote: the same records under version 1.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = scan(&path).unwrap_err();
        assert!(matches!(err, WalError::UnsupportedVersion(1)), "{err}");
        assert!(err.to_string().contains("version 1 "), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "refusing writes nothing");

        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(scan(&path), Err(WalError::UnsupportedVersion(0))));
    }

    #[test]
    fn sync_dir_reaches_a_directory_and_reports_a_missing_one() {
        let dir = tmp("syncdir");
        std::fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).unwrap();
        #[cfg(unix)]
        assert!(sync_dir(&dir.join("absent")).is_err());
        // Creating a WAL syncs the directory it lands in; one that cannot
        // be opened fails the creation rather than leaving it half-durable.
        WalWriter::create(&dir.join("fresh.wal"), 64).unwrap();
        assert!(WalWriter::create(&dir.join("absent").join("fresh.wal"), 64).is_err());
    }

    #[test]
    fn reset_truncates_to_header() {
        let path = tmp("reset.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 64).unwrap();
        w.append_batch(0, &[1u8; 30], &mut crash).unwrap();
        w.commit(0, 1, 30, true, &mut crash).unwrap();
        assert!(!w.is_empty());
        w.reset().unwrap();
        assert!(w.is_empty());
        let s = scan(&path).unwrap();
        assert!(s.batches.is_empty());
        assert_eq!(s.torn_bytes, 0);
        assert_eq!(s.batch_size, 64, "header survives the reset");
    }

    #[test]
    fn appends_after_reset_land_at_the_header_not_the_old_offset() {
        // Regression: `set_len` alone leaves the write cursor at the old
        // end of file, so post-reset appends used to punch a zero hole the
        // scanner read as a torn (everything-invalid) tail — silently
        // dropping committed batches.
        let path = tmp("reset-append.wal");
        let mut crash = CrashInjector::counting();
        let mut w = WalWriter::create(&path, 64).unwrap();
        for seq in 0..4u64 {
            w.append_batch(seq, &[seq as u8; 500], &mut crash).unwrap();
            w.commit(seq, seq, 500, true, &mut crash).unwrap();
        }
        w.reset().unwrap();
        w.append_batch(4, &[4u8; 500], &mut crash).unwrap();
        w.commit(4, 44, 500, true, &mut crash).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.torn_bytes, 0, "no hole, no torn bytes");
        assert_eq!(s.batches.len(), 1, "exactly the post-reset batch survives");
        assert_eq!(s.batches[0].seq, 4);
        assert_eq!(s.batches[0].digest, 44);
        assert_eq!(s.valid_len, std::fs::metadata(&path).unwrap().len());
    }
}
