//! Typed errors for the DCART model crates.
//!
//! Library code on fallible paths (tree construction, executor entry
//! points, the durability layer) returns [`DcartError`] instead of
//! panicking, so malformed input or an injected fault surfaces as a value
//! the caller can handle — a process abort is reserved for genuine
//! programming errors (violated internal invariants).

use std::fmt;

use dcart_art::{ArtError, SnapshotError};
use dcart_engine::{CrashSite, WalError};

/// Top-level error of the DCART model.
#[derive(Debug)]
#[non_exhaustive]
pub enum DcartError {
    /// The adaptive radix tree rejected an input (prefix key, unsorted
    /// bulk load).
    Art(ArtError),
    /// An executor was configured with a zero batch size.
    InvalidBatchSize,
    /// The write-ahead log failed (I/O, foreign file, a format version
    /// this build does not read) — or a planned crash fired inside it,
    /// which callers unwrap via [`DcartError::injected_crash`].
    Wal(WalError),
    /// A checkpoint snapshot could not be loaded (corruption, truncation,
    /// future format version).
    Snapshot(SnapshotError),
    /// Durability-layer file I/O outside the WAL itself (checkpoint
    /// files, directory creation).
    Io(std::io::Error),
    /// Crash recovery found state it must not replay: a non-contiguous
    /// batch sequence, a malformed ops payload, or a replayed batch whose
    /// digest diverges from its commit record.
    Recovery(String),
}

impl DcartError {
    /// The crash site of a planned, injected crash — `None` for every
    /// real error. The crash-point matrix uses this to tell "the simulated
    /// process died exactly where planned" apart from genuine failures.
    pub fn injected_crash(&self) -> Option<CrashSite> {
        match self {
            DcartError::Wal(WalError::InjectedCrash(site)) => Some(*site),
            _ => None,
        }
    }
}

impl fmt::Display for DcartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcartError::Art(e) => write!(f, "tree error: {e}"),
            DcartError::InvalidBatchSize => write!(f, "batch size must be positive"),
            DcartError::Wal(e) => write!(f, "write-ahead log error: {e}"),
            DcartError::Snapshot(e) => write!(f, "checkpoint snapshot error: {e}"),
            DcartError::Io(e) => write!(f, "durability I/O error: {e}"),
            DcartError::Recovery(msg) => write!(f, "crash recovery error: {msg}"),
        }
    }
}

impl std::error::Error for DcartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DcartError::Art(e) => Some(e),
            DcartError::Wal(e) => Some(e),
            DcartError::Snapshot(e) => Some(e),
            DcartError::Io(e) => Some(e),
            DcartError::InvalidBatchSize | DcartError::Recovery(_) => None,
        }
    }
}

impl From<ArtError> for DcartError {
    fn from(e: ArtError) -> Self {
        DcartError::Art(e)
    }
}

impl From<WalError> for DcartError {
    fn from(e: WalError) -> Self {
        DcartError::Wal(e)
    }
}

impl From<SnapshotError> for DcartError {
    fn from(e: SnapshotError) -> Self {
        DcartError::Snapshot(e)
    }
}

impl From<std::io::Error> for DcartError {
    fn from(e: std::io::Error) -> Self {
        DcartError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = DcartError::from(ArtError::NotSortedUnique);
        assert!(e.to_string().starts_with("tree error:"), "{e}");
        assert!(DcartError::InvalidBatchSize.to_string().contains("batch size"));
        let e = DcartError::from(WalError::BadMagic);
        assert!(e.to_string().contains("write-ahead log"), "{e}");
        let e = DcartError::from(SnapshotError::BadMagic);
        assert!(e.to_string().contains("snapshot"), "{e}");
        let e = DcartError::Recovery("batch 3 diverged".into());
        assert!(e.to_string().contains("batch 3"), "{e}");
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = DcartError::from(ArtError::NotSortedUnique);
        assert!(e.source().is_some());
        assert!(DcartError::InvalidBatchSize.source().is_none());
        assert!(DcartError::from(WalError::BadMagic).source().is_some());
        assert!(DcartError::from(SnapshotError::Truncated).source().is_some());
        let io = std::io::Error::other("disk gone");
        assert!(DcartError::from(io).source().is_some());
    }

    #[test]
    fn injected_crashes_are_distinguishable_from_real_errors() {
        let crash = DcartError::from(WalError::InjectedCrash(CrashSite::MidRecord));
        assert_eq!(crash.injected_crash(), Some(CrashSite::MidRecord));
        assert_eq!(DcartError::from(WalError::BadMagic).injected_crash(), None);
        assert_eq!(DcartError::InvalidBatchSize.injected_crash(), None);
    }
}
