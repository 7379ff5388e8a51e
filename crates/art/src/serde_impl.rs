//! The binary snapshot container the durability layer's checkpoints are
//! made of. A tree is persisted only through it: nothing serializes an
//! [`Art`](crate::Art) into report JSON. The module holds no serde code;
//! it keeps its name so its test ids stay stable.
//!
//! The **snapshot** container (`DCARTSNP`, version 2) holds the entries of
//! an `Art<u64>` — the only instantiation that reaches disk — in binary,
//! ascending by key, behind a magic number, a format version and a
//! checksum, so a corrupted, truncated, or other-version snapshot surfaces
//! as a typed [`SnapshotError`] instead of a panic or a silently wrong
//! tree. Everything is little-endian:
//!
//! ```text
//! ┌───────────┬─────────┬────────────┬───────────┬──────────────────────────────┬─────────┐
//! │ magic 8 B │ ver 4 B │ paylen 8 B │ count 8 B │ (klen 2 B | key | value 8 B)* │ sum 8 B │
//! └───────────┴─────────┴────────────┴───────────┴──────────────────────────────┴─────────┘
//!                                    └──────────── payload, paylen bytes ───────┘
//! ```
//!
//! The checksum covers the header and the payload and is computed in one
//! pass that folds eight bytes per step. Both directions stream:
//! [`SnapshotWriter`] appends entries straight into the caller's buffer,
//! and [`SnapshotEntries`] yields borrowed `(key, value)` pairs without
//! building a tree.

use crate::tree::ArtError;
use crate::Key;

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DCARTSNP";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Snapshot header bytes: magic + version + payload length.
const SNAPSHOT_HEADER_LEN: usize = 8 + 4 + 8;

/// Bytes of the entry count that opens the payload.
const COUNT_LEN: usize = 8;

/// Bytes of one entry around its key: `key_len u16` before, `value u64`
/// after.
const ENTRY_FRAME: usize = 2 + 8;

/// Why a snapshot could not be produced or loaded. Loading never panics:
/// every malformed input maps to one of these.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The header carries a version this build does not read (the JSON
    /// payload of version 1 included).
    UnsupportedVersion(u32),
    /// Fewer bytes than the header promises (a torn write).
    Truncated,
    /// The checksum over the header and payload does not match.
    ChecksumMismatch,
    /// The payload is not the entry list its count and length promise, or
    /// a key cannot be encoded.
    Malformed(String),
    /// The entries decoded but break the tree's input contract (a key that
    /// is a prefix of its successor, or keys out of order).
    Tree(ArtError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an ART snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "snapshot format version {v} is not the one this build reads ({SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(e) => write!(f, "snapshot payload is malformed: {e}"),
            SnapshotError::Tree(e) => write!(f, "snapshot entries rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtError> for SnapshotError {
    fn from(e: ArtError) -> Self {
        SnapshotError::Tree(e)
    }
}

/// The snapshot checksum: one multiply-and-fold step per eight bytes (the
/// tail zero-padded), seeded with the length. Every step is a bijection of
/// the running state, so bytes that differ within one word always change
/// the sum; like the WAL's, it catches torn writes and bit rot, nothing
/// adversarial.
fn snapshot_checksum(bytes: &[u8]) -> u64 {
    fn fold(h: u64, word: u64) -> u64 {
        let h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }
    let mut h = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h
}

fn get_u32(bytes: &[u8], off: usize) -> Option<u32> {
    let b = bytes.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(bytes: &[u8], off: usize) -> Option<u64> {
    let b = bytes.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// The entry that opens an encoded entry region, and where the next one
/// starts; `None` when the bytes there are not a whole entry.
fn first_entry(region: &[u8]) -> Option<(&[u8], u64, usize)> {
    let len = region.get(..2).map(|b| u16::from_le_bytes([b[0], b[1]]))? as usize;
    let key = region.get(2..2 + len)?;
    let value = get_u64(region, 2 + len)?;
    Some((key, value, ENTRY_FRAME + len))
}

/// What [`SnapshotWriter::finish`] wrote: enough to chain an outer
/// checksum over the container without reading it again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrittenSnapshot {
    /// The container's checksum (also its last eight bytes).
    pub checksum: u64,
}

/// Streaming encoder of one snapshot container, appending to a caller's
/// buffer: [`begin`](Self::begin), then entries in ascending key order
/// ([`push`](Self::push)), then [`finish`](Self::finish).
pub struct SnapshotWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Offset of the container's magic in `out`.
    start: usize,
    count: u64,
}

impl<'a> SnapshotWriter<'a> {
    /// Starts a container at the current end of `out`.
    pub fn begin(out: &'a mut Vec<u8>) -> Self {
        let start = out.len();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        // Payload length and entry count: known at `finish`.
        out.extend_from_slice(&[0u8; 8 + COUNT_LEN]);
        SnapshotWriter { out, start, count: 0 }
    }

    /// Appends one entry. The caller keeps keys strictly ascending and
    /// prefix-free (a tree's iteration order is); a reader rejects a
    /// container that is not.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for a key the 16-bit length cannot
    /// hold (or an empty one).
    pub fn push(&mut self, key: &[u8], value: u64) -> Result<(), SnapshotError> {
        let len = u16::try_from(key.len())
            .ok()
            .filter(|&l| l > 0)
            .ok_or_else(|| SnapshotError::Malformed(format!("{}-byte key", key.len())))?;
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(key);
        self.out.extend_from_slice(&value.to_le_bytes());
        self.count += 1;
        Ok(())
    }

    /// Completes the container: fills in the payload length and the entry
    /// count, appends the checksum.
    pub fn finish(self) -> WrittenSnapshot {
        let SnapshotWriter { out, start, count } = self;
        let payload_at = start + SNAPSHOT_HEADER_LEN;
        let payload_len = (out.len() - payload_at) as u64;
        out[start + 12..payload_at].copy_from_slice(&payload_len.to_le_bytes());
        out[payload_at..payload_at + COUNT_LEN].copy_from_slice(&count.to_le_bytes());
        let checksum = snapshot_checksum(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        WrittenSnapshot { checksum }
    }
}

/// Streaming decoder: the entries of one snapshot as borrowed
/// `(key bytes, value)` pairs, ascending. Each step checks the entry it
/// yields — whole, non-empty key, above its predecessor and not extending
/// it — so a consumer that reaches the end without an `Err` has seen a
/// valid bulk-load input, and one that stops at the first `Err` has
/// consumed nothing invalid.
#[derive(Debug)]
pub struct SnapshotEntries<'a> {
    rest: &'a [u8],
    remaining: u64,
    prev: Option<&'a [u8]>,
}

impl<'a> SnapshotEntries<'a> {
    /// Opens a container: checks magic, version, length and checksum —
    /// in that order, before touching the payload — and returns its
    /// entries and its checksum.
    ///
    /// # Errors
    ///
    /// The typed [`SnapshotError`] of the first check that fails.
    pub fn open(bytes: &'a [u8]) -> Result<(Self, u64), SnapshotError> {
        if bytes.len() < 8 || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = get_u32(bytes, 8).ok_or(SnapshotError::Truncated)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = get_u64(bytes, 12).ok_or(SnapshotError::Truncated)?;
        let body_end = usize::try_from(payload_len)
            .ok()
            .and_then(|len| SNAPSHOT_HEADER_LEN.checked_add(len))
            .ok_or(SnapshotError::Truncated)?;
        let stored = get_u64(bytes, body_end).ok_or(SnapshotError::Truncated)?;
        if snapshot_checksum(&bytes[..body_end]) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        if body_end + 8 != bytes.len() {
            // Trailing garbage past the checksum: a mis-framed container.
            return Err(SnapshotError::Malformed("trailing bytes after checksum".into()));
        }
        let payload = &bytes[SNAPSHOT_HEADER_LEN..body_end];
        let count = get_u64(payload, 0)
            .ok_or_else(|| SnapshotError::Malformed("payload shorter than its count".into()))?;
        Ok((Self::over(&payload[COUNT_LEN..], count), stored))
    }

    /// The `count` entries encoded in `region`.
    fn over(region: &'a [u8], count: u64) -> Self {
        SnapshotEntries { rest: region, remaining: count, prev: None }
    }

    /// Decodes the remaining entries into owned bulk-load input.
    ///
    /// # Errors
    ///
    /// The first entry error, as iteration reports it.
    pub fn collect_pairs(self) -> Result<Vec<(Key, u64)>, SnapshotError> {
        // Room for what the count promises, but never for more entries
        // than the bytes could hold.
        let promised = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        let mut pairs = Vec::with_capacity(promised.min(self.rest.len() / (ENTRY_FRAME + 1)));
        for entry in self {
            let (key, value) = entry?;
            pairs.push((Key::from_raw(key), value));
        }
        Ok(pairs)
    }

    fn step(&mut self) -> Result<Option<(&'a [u8], u64)>, SnapshotError> {
        if self.remaining == 0 {
            return if self.rest.is_empty() {
                Ok(None)
            } else {
                Err(SnapshotError::Malformed("bytes left after the last entry".into()))
            };
        }
        let (key, value, next) = first_entry(self.rest)
            .ok_or_else(|| SnapshotError::Malformed("entry list ends inside an entry".into()))?;
        if key.is_empty() {
            return Err(SnapshotError::Malformed("empty key".into()));
        }
        if let Some(prev) = self.prev {
            if prev >= key {
                return Err(ArtError::NotSortedUnique.into());
            }
            if key.starts_with(prev) {
                return Err(ArtError::PrefixViolation.into());
            }
        }
        self.rest = &self.rest[next..];
        self.remaining -= 1;
        self.prev = Some(key);
        Ok(Some((key, value)))
    }
}

impl<'a> Iterator for SnapshotEntries<'a> {
    type Item = Result<(&'a [u8], u64), SnapshotError>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            // Fuse: report the first error once, then end.
            *self = SnapshotEntries::over(&[], 0);
        }
        step.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Art;

    fn sample_tree() -> Art<u64> {
        let mut art = Art::new();
        for v in 0..600u64 {
            art.insert(Key::from_u64(v.wrapping_mul(0x9E37_79B9)), v).unwrap();
        }
        // Remove a slice so the snapshot covers post-remove shapes.
        for v in 0..120u64 {
            art.remove(&Key::from_u64((v * 5).wrapping_mul(0x9E37_79B9)));
        }
        art
    }

    /// `art`'s snapshot container.
    fn snapshot(art: &Art<u64>) -> Vec<u8> {
        let pairs: Vec<(&[u8], u64)> = art.iter().map(|(k, &v)| (k.as_bytes(), v)).collect();
        container_of(&pairs)
    }

    /// Loads a tree from a snapshot container, the way recovery does.
    fn load(bytes: &[u8]) -> Result<Art<u64>, SnapshotError> {
        let (entries, _) = SnapshotEntries::open(bytes)?;
        Ok(Art::from_sorted(entries.collect_pairs()?)?)
    }

    /// A container holding exactly `entries`, in the order given.
    fn container_of(entries: &[(&[u8], u64)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut bytes);
        for &(key, value) in entries {
            writer.push(key, value).unwrap();
        }
        writer.finish();
        bytes
    }

    #[test]
    fn snapshot_roundtrip_is_identity() {
        let art = sample_tree();
        let bytes = snapshot(&art);
        assert_eq!(bytes[..8], SNAPSHOT_MAGIC);
        // Fixed-width keys: 18 bytes an entry around a 36-byte frame.
        assert_eq!(bytes.len(), 36 + art.len() * 18);
        let back: Art<u64> = load(&bytes).unwrap();
        assert_eq!(back.len(), art.len());
        assert_eq!(back.type_histogram(), art.type_histogram());
        let a: Vec<(Key, u64)> = art.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let b: Vec<(Key, u64)> = back.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(a, b);
        back.assert_invariants();
    }

    #[test]
    fn empty_tree_snapshot_roundtrips() {
        let art: Art<u64> = Art::new();
        let bytes = snapshot(&art);
        let back: Art<u64> = load(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn every_single_bitflip_in_a_real_snapshot_is_detected_or_harmless() {
        // Flip one bit at a time through the whole container — header,
        // count, entries, checksum; loading must fail with a typed error
        // every time (no flip is harmless in the binary format), and must
        // never panic.
        let art = {
            let mut a = Art::new();
            for v in 0..40u64 {
                a.insert(Key::from_u64(v * 3), v).unwrap();
            }
            a
        };
        let bytes = snapshot(&art);
        let mut detected = 0usize;
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            if load(&corrupt).is_err() {
                detected += 1;
            }
        }
        assert_eq!(detected, bytes.len(), "every bit flip must be caught by the checksum");
    }

    #[test]
    fn every_truncation_of_a_real_snapshot_is_detected() {
        let art = sample_tree();
        let bytes = snapshot(&art);
        for end in 0..bytes.len() {
            let err = load(&bytes[..end]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated
                        | SnapshotError::UnsupportedVersion(_)
                ),
                "cut at {end}: {err}"
            );
        }
    }

    #[test]
    fn future_version_snapshot_is_rejected_not_parsed() {
        let art = sample_tree();
        let mut bytes = snapshot(&art);
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = load(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(3)), "{err}");
        assert!(err.to_string().contains("version 3"), "{err}");
    }

    #[test]
    fn version_one_json_snapshot_is_rejected_by_version() {
        // What the version-1 writer produced: a JSON payload under the
        // WAL's record checksum. The version decides, before any of it is
        // read.
        let payload = br#"[[[0,0,0,0,0,0,0,1],7]]"#;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&[0u8; 8]);
        let err = load(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(1)), "{err}");
    }

    #[test]
    fn foreign_bytes_are_rejected_with_bad_magic() {
        let err = load(b"not a snapshot at all").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
        let err = load(&[]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let art = sample_tree();
        let mut bytes = snapshot(&art);
        bytes.extend_from_slice(b"junk");
        let err = load(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
    }

    #[test]
    fn prefix_violating_snapshot_payload_is_a_typed_error() {
        // A well-formed container whose entries violate the prefix-free
        // invariant: the error must be typed, not a panic.
        let bytes = container_of(&[(&[1, 2], 7), (&[1, 2, 3], 8)]);
        let err = load(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Tree(ArtError::PrefixViolation)), "{err}");
        assert!(err.to_string().contains("prefix"), "{err}");
    }

    #[test]
    fn unsorted_or_miscounted_payloads_are_typed_errors() {
        let unsorted = container_of(&[(&[2], 1), (&[1], 2)]);
        let err = load(&unsorted).unwrap_err();
        assert!(matches!(err, SnapshotError::Tree(ArtError::NotSortedUnique)), "{err}");

        // Re-seal a container around a count that disagrees with its
        // entries, both ways.
        let good = container_of(&[(&[1], 1), (&[2], 2)]);
        for count in [1u64, 3, u64::MAX] {
            let mut bytes = good[..good.len() - 8].to_vec();
            bytes[SNAPSHOT_HEADER_LEN..SNAPSHOT_HEADER_LEN + 8]
                .copy_from_slice(&count.to_le_bytes());
            let sum = snapshot_checksum(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            let err = load(&bytes).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "count {count}: {err}");
        }

        let mut bytes = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut bytes);
        assert!(matches!(writer.push(&[], 1), Err(SnapshotError::Malformed(_))));
        assert!(matches!(writer.push(&[7; 70_000], 1), Err(SnapshotError::Malformed(_))));
        writer.finish();
        assert!(load(&bytes).unwrap().is_empty(), "a refused key is not written");
    }

    #[test]
    fn checksum_folds_every_byte_and_the_length() {
        let base: Vec<u8> = (0..37u8).collect();
        let sum = snapshot_checksum(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x80;
            assert_ne!(snapshot_checksum(&flipped), sum, "byte {i}");
        }
        // A zero tail is not the same as no tail.
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(snapshot_checksum(&longer), sum);
        assert_ne!(snapshot_checksum(&base[..32]), snapshot_checksum(&base[..33]));
    }
}
