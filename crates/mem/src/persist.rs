//! Byte accounting for the durability layer (WAL + checkpoints).
//!
//! The durability layer in `crates/core` persists two artifact streams:
//! append-only WAL records at every batch boundary, and a checkpoint file
//! at every checkpoint interval. A checkpoint file always holds every
//! entry of the tree (18 bytes per 8-byte key in the binary snapshot
//! format), however few keys the interval wrote. This module counts both
//! streams, so reports can put persistence traffic side by side with the
//! simulated on-chip buffer traffic ([`BufferStats`](crate::BufferStats))
//! and answer the sizing question the checkpoint interval poses: how many
//! bytes of log does one checkpoint absorb, and how does a snapshot
//! compare to the accelerator's Tree-buffer capacity?

use serde::Serialize;

/// Counters for everything the durability layer writes, truncates, and
/// replays. All zero when durability is off.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize)]
pub struct PersistStats {
    /// Bytes appended to the WAL (records that reached the file,
    /// including commit marks; torn prefixes of crashed writes are not
    /// counted — they are reported as `torn_bytes_truncated` at recovery).
    pub wal_bytes: u64,
    /// Batch records appended.
    pub wal_batches: u64,
    /// Commit marks appended (equals `wal_batches` on a crash-free run).
    pub wal_commits: u64,
    /// Bytes of raw operation payload carried by the batch records —
    /// the denominator of [`write_amplification`](Self::write_amplification).
    pub payload_bytes: u64,
    /// Bytes written as checkpoint files, whole files each time (the torn
    /// prefix of an interrupted temp file included).
    pub checkpoint_bytes: u64,
    /// Checkpoints durably installed (atomic rename completed).
    pub checkpoints: u64,
    /// Bytes of torn WAL tail cut off during recovery.
    pub torn_bytes_truncated: u64,
    /// Batches replayed from the WAL during recovery.
    pub replayed_batches: u64,
}

impl PersistStats {
    /// Total bytes the durability layer pushed to storage.
    pub fn total_bytes(&self) -> u64 {
        self.wal_bytes + self.checkpoint_bytes
    }

    /// Bytes persisted per byte of operation payload (≥ 1 in practice:
    /// framing, commit marks, and snapshots all amplify). `0` when no
    /// payload was logged.
    pub fn write_amplification(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.payload_bytes as f64
        }
    }

    /// Average installed-checkpoint size in bytes; `0` before the first
    /// checkpoint. Comparing this against an on-chip buffer capacity
    /// (e.g. the 4 MB Tree buffer) shows how much of the working set a
    /// checkpoint carries relative to what the accelerator keeps resident.
    pub fn mean_checkpoint_bytes(&self) -> f64 {
        if self.checkpoints == 0 {
            0.0
        } else {
            self.checkpoint_bytes as f64 / self.checkpoints as f64
        }
    }

    /// Folds another accounting into this one (for summing across
    /// crash/recover cycles or matrix cells).
    pub fn accumulate(&mut self, other: &PersistStats) {
        self.wal_bytes += other.wal_bytes;
        self.wal_batches += other.wal_batches;
        self.wal_commits += other.wal_commits;
        self.payload_bytes += other.payload_bytes;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoints += other.checkpoints;
        self.torn_bytes_truncated += other.torn_bytes_truncated;
        self.replayed_batches += other.replayed_batches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_and_means() {
        let s = PersistStats {
            wal_bytes: 150,
            wal_batches: 2,
            wal_commits: 2,
            payload_bytes: 100,
            checkpoint_bytes: 50,
            checkpoints: 2,
            ..PersistStats::default()
        };
        assert_eq!(s.total_bytes(), 200);
        assert!((s.write_amplification() - 2.0).abs() < 1e-12);
        assert!((s.mean_checkpoint_bytes() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_stay_finite() {
        let s = PersistStats::default();
        assert_eq!(s.write_amplification(), 0.0);
        assert_eq!(s.mean_checkpoint_bytes(), 0.0);
    }

    #[test]
    fn accumulate_sums_every_counter() {
        let a = PersistStats {
            wal_bytes: 1,
            wal_batches: 2,
            wal_commits: 3,
            payload_bytes: 4,
            checkpoint_bytes: 5,
            checkpoints: 6,
            torn_bytes_truncated: 7,
            replayed_batches: 8,
        };
        let mut b = a;
        b.accumulate(&a);
        assert_eq!(
            b,
            PersistStats {
                wal_bytes: 2,
                wal_batches: 4,
                wal_commits: 6,
                payload_bytes: 8,
                checkpoint_bytes: 10,
                checkpoints: 12,
                torn_bytes_truncated: 14,
                replayed_batches: 16,
            }
        );
    }
}
