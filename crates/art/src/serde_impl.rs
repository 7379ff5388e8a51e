//! The binary snapshot container the durability layer's checkpoints are
//! made of. A tree is persisted only through it: [`Art`] has no serde
//! impls, and nothing serializes a tree into report JSON.
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
//! [`SnapshotWriter`] appends entries (or merges a sorted set of updates
//! into the entries of an earlier snapshot) straight into the caller's
//! buffer, and [`SnapshotEntries`] yields borrowed `(key, value)` pairs
//! without building a tree.

use std::cmp::Ordering;
use std::ops::Range;

use crate::tree::ArtError;
use crate::{Art, Key};

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

/// The entry that starts at `off` in an encoded entry region, and where
/// the next one starts; `None` when the bytes there are not a whole entry.
fn entry_at(region: &[u8], off: usize) -> Option<(&[u8], u64, usize)> {
    let len = region.get(off..off + 2).map(|b| u16::from_le_bytes([b[0], b[1]]))? as usize;
    let key = region.get(off + 2..off + 2 + len)?;
    let value = get_u64(region, off + 2 + len)?;
    Some((key, value, off + ENTRY_FRAME + len))
}

fn broken_entry() -> SnapshotError {
    SnapshotError::Malformed("entry list ends inside an entry".into())
}

/// What [`SnapshotWriter::finish`] wrote: enough to chain an outer
/// checksum over the container and to merge into its entries later
/// ([`SnapshotEntries::over`]) without parsing it again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrittenSnapshot {
    /// Byte range of the encoded entries inside the writer's buffer.
    pub entries: Range<usize>,
    /// Entries written.
    pub count: u64,
    /// The container's checksum (also its last eight bytes).
    pub checksum: u64,
}

/// Streaming encoder of one snapshot container, appending to a caller's
/// buffer: [`begin`](Self::begin), then entries in ascending key order —
/// one at a time ([`push`](Self::push)) or as an earlier snapshot's
/// entries with a sorted set of updates applied ([`merge`](Self::merge)) —
/// then [`finish`](Self::finish).
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

    /// Appends `base` with `updates` applied, in one sequential pass over
    /// both: `updates` ascends strictly by key and holds each key's new
    /// state — `Some(value)` to insert or overwrite, `None` to drop it
    /// (absent already is fine). Stretches of `base` between two updates
    /// are copied as bytes, so the cost is one key comparison per base
    /// entry up to the last update plus the copy.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when `base` is not a whole entry list
    /// or an update's key cannot be encoded.
    pub fn merge<'k>(
        &mut self,
        base: SnapshotEntries<'_>,
        updates: impl IntoIterator<Item = (&'k [u8], Option<u64>)>,
    ) -> Result<(), SnapshotError> {
        let region = base.rest;
        let mut kept = base.remaining;
        // `region[copied..off]` is walked but not yet copied.
        let (mut copied, mut off) = (0usize, 0usize);
        let mut last: Option<&[u8]> = None;
        for (key, state) in updates {
            debug_assert!(last.is_none_or(|l| l < key), "updates must ascend strictly");
            last = Some(key);
            // Walk past the base entries below `key`; one equal to it is
            // superseded — overwritten below, or removed.
            let mut superseded = None;
            while off < region.len() {
                let (base_key, _, next) = entry_at(region, off).ok_or_else(broken_entry)?;
                match base_key.cmp(key) {
                    Ordering::Less => off = next,
                    Ordering::Equal => {
                        superseded = Some(next);
                        break;
                    }
                    Ordering::Greater => break,
                }
            }
            self.out.extend_from_slice(&region[copied..off]);
            if let Some(next) = superseded {
                off = next;
                kept = kept.checked_sub(1).ok_or_else(broken_entry)?;
            }
            copied = off;
            if let Some(value) = state {
                self.push(key, value)?;
            }
        }
        self.out.extend_from_slice(&region[copied..]);
        self.count += kept;
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
        let entries = payload_at + COUNT_LEN..out.len();
        let checksum = snapshot_checksum(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        WrittenSnapshot { entries, count, checksum }
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

    /// The `count` entries encoded in `region` (what
    /// [`WrittenSnapshot::entries`] delimits).
    pub fn over(region: &'a [u8], count: u64) -> Self {
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
        let (key, value, next) = entry_at(self.rest, 0).ok_or_else(broken_entry)?;
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

impl Art<u64> {
    /// Serializes the tree into the snapshot container.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if a key is longer than the format's
    /// 16-bit length field can say.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut out);
        for (key, &value) in self.iter() {
            writer.push(key.as_bytes(), value)?;
        }
        writer.finish();
        Ok(out)
    }

    /// Loads a tree from snapshot bytes. Returns a typed
    /// [`SnapshotError`] — never panics — on any corruption, truncation,
    /// or version mismatch.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (entries, _) = SnapshotEntries::open(bytes)?;
        Ok(Art::from_sorted(entries.collect_pairs()?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let bytes = art.snapshot_bytes().unwrap();
        assert_eq!(bytes[..8], SNAPSHOT_MAGIC);
        // Fixed-width keys: 18 bytes an entry around a 36-byte frame.
        assert_eq!(bytes.len(), 36 + art.len() * 18);
        let back: Art<u64> = Art::from_snapshot_bytes(&bytes).unwrap();
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
        let bytes = art.snapshot_bytes().unwrap();
        let back: Art<u64> = Art::from_snapshot_bytes(&bytes).unwrap();
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
        let bytes = art.snapshot_bytes().unwrap();
        let mut detected = 0usize;
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            if Art::<u64>::from_snapshot_bytes(&corrupt).is_err() {
                detected += 1;
            }
        }
        assert_eq!(detected, bytes.len(), "every bit flip must be caught by the checksum");
    }

    #[test]
    fn every_truncation_of_a_real_snapshot_is_detected() {
        let art = sample_tree();
        let bytes = art.snapshot_bytes().unwrap();
        for end in 0..bytes.len() {
            let err = Art::<u64>::from_snapshot_bytes(&bytes[..end]).unwrap_err();
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
        let mut bytes = art.snapshot_bytes().unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = Art::<u64>::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(3)), "{err}");
        assert!(err.to_string().contains("version 3"), "{err}");
    }

    #[test]
    fn version_one_json_snapshot_is_rejected_by_version() {
        // What the version-1 writer produced: a JSON payload under an
        // FNV-1a checksum. The version decides, before any of it is read.
        let payload = br#"[[[0,0,0,0,0,0,0,1],7]]"#;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&[0u8; 8]);
        let err = Art::<u64>::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(1)), "{err}");
    }

    #[test]
    fn foreign_bytes_are_rejected_with_bad_magic() {
        let err = Art::<u64>::from_snapshot_bytes(b"not a snapshot at all").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
        let err = Art::<u64>::from_snapshot_bytes(&[]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let art = sample_tree();
        let mut bytes = art.snapshot_bytes().unwrap();
        bytes.extend_from_slice(b"junk");
        let err = Art::<u64>::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
    }

    #[test]
    fn prefix_violating_snapshot_payload_is_a_typed_error() {
        // A well-formed container whose entries violate the prefix-free
        // invariant: the error must be typed, not a panic.
        let bytes = container_of(&[(&[1, 2], 7), (&[1, 2, 3], 8)]);
        let err = Art::<u64>::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Tree(ArtError::PrefixViolation)), "{err}");
        assert!(err.to_string().contains("prefix"), "{err}");
    }

    #[test]
    fn unsorted_or_miscounted_payloads_are_typed_errors() {
        let unsorted = container_of(&[(&[2], 1), (&[1], 2)]);
        let err = Art::<u64>::from_snapshot_bytes(&unsorted).unwrap_err();
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
            let err = Art::<u64>::from_snapshot_bytes(&bytes).unwrap_err();
            assert!(matches!(err, SnapshotError::Malformed(_)), "count {count}: {err}");
        }

        let mut bytes = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut bytes);
        assert!(matches!(writer.push(&[], 1), Err(SnapshotError::Malformed(_))));
        assert!(matches!(writer.push(&[7; 70_000], 1), Err(SnapshotError::Malformed(_))));
        assert_eq!(writer.finish().count, 0);
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

    /// Encodes `model` from scratch and by merging `updates` into the
    /// container of `base`; both must be the same bytes.
    fn assert_merge_matches(base: &[(Vec<u8>, u64)], updates: &[(Vec<u8>, Option<u64>)]) {
        let mut model: std::collections::BTreeMap<Vec<u8>, u64> = base.iter().cloned().collect();
        for (key, state) in updates {
            match state {
                Some(v) => model.insert(key.clone(), *v),
                None => model.remove(key),
            };
        }
        let as_refs = |m: &[(Vec<u8>, u64)]| -> Vec<u8> {
            container_of(&m.iter().map(|(k, v)| (k.as_slice(), *v)).collect::<Vec<_>>())
        };
        let expected = as_refs(&model.into_iter().collect::<Vec<_>>());

        let mut first = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut first);
        for (key, value) in base {
            writer.push(key, *value).unwrap();
        }
        let written = writer.finish();
        assert_eq!(written.count, base.len() as u64);
        assert_eq!(written.checksum.to_le_bytes(), first[first.len() - 8..]);

        let mut merged = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut merged);
        writer
            .merge(
                SnapshotEntries::over(&first[written.entries.clone()], written.count),
                updates.iter().map(|(k, s)| (k.as_slice(), *s)),
            )
            .unwrap();
        writer.finish();
        assert_eq!(merged, expected);
    }

    #[test]
    fn merge_applies_sorted_updates_in_one_pass() {
        let base: Vec<(Vec<u8>, u64)> =
            (0..50u64).map(|v| (Key::from_u64(v * 4).as_bytes().to_vec(), v)).collect();
        let key = |v: u64| Key::from_u64(v).as_bytes().to_vec();
        // Overwrite, remove, insert between, remove an absent key, insert
        // below the first and above the last entry.
        assert_merge_matches(
            &base,
            &[
                (vec![0, 0], Some(1)),
                (key(0), None),
                (key(4), Some(99)),
                (key(5), Some(5)),
                (key(6), None),
                (key(100), None),
                (key(196), Some(7)),
                (key(1000), Some(8)),
                (key(1001), None),
            ],
        );
        assert_merge_matches(&base, &[]);
        assert_merge_matches(&[], &[(key(1), Some(1)), (key(2), None)]);
        assert_merge_matches(
            &base,
            &base.iter().map(|(k, _)| (k.clone(), None)).collect::<Vec<_>>(),
        );
        // Variable-length keys keep their own length fields.
        let words: Vec<(Vec<u8>, u64)> = ["ant\0", "bee\0", "beetle\0", "cat\0"]
            .iter()
            .map(|w| (w.as_bytes().to_vec(), 1))
            .collect();
        assert_merge_matches(
            &words,
            &[
                (b"be\0".to_vec(), Some(2)),
                (b"beetle\0".to_vec(), None),
                (b"dog\0".to_vec(), Some(3)),
            ],
        );
    }

    #[test]
    fn merge_into_a_broken_region_is_a_typed_error() {
        let good = container_of(&[(&[1], 1), (&[2], 2), (&[3], 3)]);
        let region = &good[SNAPSHOT_HEADER_LEN + COUNT_LEN..good.len() - 8];
        let cut = &region[..region.len() - 3];
        let mut out = Vec::new();
        let mut writer = SnapshotWriter::begin(&mut out);
        let err = writer.merge(SnapshotEntries::over(cut, 3), [(&[9u8][..], Some(9))]).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        // More hits than the count admits.
        let mut writer = SnapshotWriter::begin(&mut out);
        let err = writer.merge(SnapshotEntries::over(region, 0), [(&[1u8][..], None)]).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
    }
}
