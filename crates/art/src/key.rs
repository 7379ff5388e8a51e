//! Binary-comparable, prefix-free key encodings.
//!
//! An [adaptive radix tree](crate::Art) stores keys as byte strings and
//! compares them bytewise, so every key type must first be transformed into a
//! *binary-comparable* encoding: one whose bytewise order equals the logical
//! order of the original values. In addition, radix trees require the key set
//! to be *prefix-free* — no key may be a strict prefix of another — because a
//! key that ends in the middle of an inner node has no child slot to occupy.
//!
//! The constructors on [`Key`] produce encodings with both properties:
//!
//! * fixed-width big-endian integers ([`Key::from_u32`], [`Key::from_u64`])
//!   are binary-comparable and, being fixed width, trivially prefix-free;
//! * strings ([`Key::from_str_bytes`]) get a terminating `0` byte appended,
//!   which makes any set of `0`-free strings prefix-free while preserving
//!   lexicographic order.
//!
//! [`Key::from_raw`] performs no transformation and is for callers that
//! guarantee the two properties themselves.
//!
//! # Representation
//!
//! A [`Key`] is 24 bytes and holds up to [`Key::INLINE_CAP`] encoded bytes
//! in place: every fixed-width constructor, the wire protocol's 8-byte keys
//! and the workloads' short strings live inside the `Key` itself, so
//! reading, comparing or hashing one touches no second cache line and
//! building one allocates nothing. Longer keys spill to a shared heap
//! buffer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A byte-string key in binary-comparable, prefix-free form.
///
/// Keys of at most [`Key::INLINE_CAP`] bytes are stored inline and
/// [`Clone`] copies them (24 bytes, no allocation, no reference count);
/// longer keys share one reference-counted buffer between clones.
/// Equality, ordering and hashing are those of the encoded byte slice,
/// whichever representation holds it.
///
/// # Examples
///
/// ```
/// use dcart_art::Key;
///
/// let a = Key::from_u64(1);
/// let b = Key::from_u64(256);
/// // Big-endian encoding preserves integer order under bytewise comparison.
/// assert!(a.as_bytes() < b.as_bytes());
/// ```
#[derive(Clone)]
pub struct Key(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the key; the tail stays zero.
    Inline { len: u8, bytes: [u8; Key::INLINE_CAP] },
    /// Keys longer than [`Key::INLINE_CAP`].
    Spilled(Arc<[u8]>),
}

impl Key {
    /// Longest encoded key stored inline: what is left of 24 bytes — the
    /// size the spilled variant's fat pointer forces — after the variant
    /// tag and the length byte.
    pub const INLINE_CAP: usize = 22;

    fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= Self::INLINE_CAP {
            let mut inline = [0u8; Self::INLINE_CAP];
            inline[..bytes.len()].copy_from_slice(bytes);
            Key(Repr::Inline { len: bytes.len() as u8, bytes: inline })
        } else {
            Key(Repr::Spilled(Arc::from(bytes)))
        }
    }

    /// Creates a key from raw bytes without any transformation.
    ///
    /// The caller is responsible for ensuring that the resulting key set is
    /// prefix-free; inserting a key that is a strict prefix of an existing
    /// key (or vice versa) makes [`Art::insert`](crate::Art::insert) return
    /// [`ArtError::PrefixViolation`](crate::ArtError::PrefixViolation).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty: the empty key is a prefix of every key.
    pub fn from_raw(bytes: impl Into<Box<[u8]>>) -> Self {
        let bytes = bytes.into();
        assert!(!bytes.is_empty(), "keys must be non-empty");
        Self::from_slice(&bytes)
    }

    /// Encodes a `u32` as a 4-byte big-endian key.
    pub fn from_u32(v: u32) -> Self {
        Self::from_slice(&v.to_be_bytes())
    }

    /// Encodes a `u64` as an 8-byte big-endian key.
    ///
    /// This is the encoding used by the paper's synthetic workloads (50 M
    /// dense/sparse 8-byte integer keys).
    pub fn from_u64(v: u64) -> Self {
        Self::from_slice(&v.to_be_bytes())
    }

    /// Encodes an IPv4 address as a 4-byte key (network byte order).
    pub fn from_ipv4(octets: [u8; 4]) -> Self {
        Self::from_slice(&octets)
    }

    /// Encodes a string as a NUL-terminated byte key.
    ///
    /// The appended terminator makes any set of NUL-free strings prefix-free
    /// while preserving lexicographic order, exactly as recommended by the
    /// original ART paper.
    ///
    /// # Panics
    ///
    /// Panics if `s` contains an interior NUL byte, which would break the
    /// prefix-free guarantee.
    pub fn from_str_bytes(s: &str) -> Self {
        assert!(!s.as_bytes().contains(&0), "string keys must not contain NUL bytes");
        if s.len() < Self::INLINE_CAP {
            // Terminate on the stack: no allocation for an inline key.
            let mut buf = [0u8; Self::INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            return Self::from_slice(&buf[..=s.len()]);
        }
        let mut v = Vec::with_capacity(s.len() + 1);
        v.extend_from_slice(s.as_bytes());
        v.push(0);
        Self::from_slice(&v)
    }

    /// Returns the encoded bytes of this key.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Spilled(bytes) => bytes,
        }
    }

    /// Returns the encoded length in bytes.
    #[allow(clippy::len_without_is_empty)] // keys are never empty by construction
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Returns `bits` of the key, starting `skip_bytes` into it, as a prefix
    /// identifier, zero-extended on the right if the key is shorter. DCART's
    /// Prefix-based Combining Unit buckets operations by such a prefix.
    ///
    /// Fixed-width integer key sets often share a constant high-byte run
    /// (e.g. 8-byte big-endian keys below 2^56 all start with `0x00`), under
    /// which a byte-0 prefix degenerates to a single combining bucket. The
    /// host driver programs the skip to the key set's common-prefix length
    /// so the combining prefix starts at the first discriminating byte.
    pub fn prefix_bits_at(&self, skip_bytes: usize, bits: u32) -> u64 {
        debug_assert!(
            bits <= 64 && bits.is_multiple_of(4),
            "prefix width must be <= 64 and nibble-aligned"
        );
        let nbytes = bits.div_ceil(8) as usize;
        let bytes = self.as_bytes();
        let mut acc: u64 = 0;
        for i in 0..nbytes {
            acc = (acc << 8) | u64::from(bytes.get(skip_bytes + i).copied().unwrap_or(0));
        }
        if !bits.is_multiple_of(8) {
            acc >>= 8 - bits % 8;
        }
        acc
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Hashes exactly as the byte slice does: hash-map iteration order, where
/// anything still depends on it, is a function of this.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(")?;
        for (i, b) in self.as_bytes().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key::from_u64(v)
    }
}

impl From<u32> for Key {
    fn from(v: u32) -> Self {
        Key::from_u32(v)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::from_str_bytes(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_keys_are_binary_comparable() {
        let values = [0u64, 1, 2, 255, 256, 65535, 1 << 32, u64::MAX];
        for w in values.windows(2) {
            let (a, b) = (Key::from_u64(w[0]), Key::from_u64(w[1]));
            assert!(a.as_bytes() < b.as_bytes(), "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 42, u64::MAX, 0x0123_4567_89ab_cdef] {
            let bytes: [u8; 8] = Key::from_u64(v).as_bytes().try_into().expect("8-byte key");
            assert_eq!(u64::from_be_bytes(bytes), v);
        }
        assert_eq!(Key::from_u32(7).len(), 4);
    }

    #[test]
    fn string_keys_are_prefix_free() {
        let a = Key::from_str_bytes("abc");
        let b = Key::from_str_bytes("abcd");
        // The NUL terminator prevents `a` from being a prefix of `b`.
        assert!(!b.as_bytes().starts_with(a.as_bytes()));
        // ... while bytewise order still matches lexicographic order.
        assert!(a.as_bytes() < b.as_bytes());
    }

    #[test]
    #[should_panic(expected = "NUL")]
    fn interior_nul_rejected() {
        let _ = Key::from_str_bytes("a\0b");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_raw_key_rejected() {
        let _ = Key::from_raw(Vec::new());
    }

    #[test]
    fn prefix_bits_extracts_leading_bits() {
        let k = Key::from_raw(vec![0xab, 0xcd, 0xef]);
        assert_eq!(k.prefix_bits_at(0, 8), 0xab);
        assert_eq!(k.prefix_bits_at(0, 4), 0xa);
        assert_eq!(k.prefix_bits_at(0, 16), 0xabcd);
        assert_eq!(k.prefix_bits_at(0, 12), 0xabc);
    }

    #[test]
    fn prefix_bits_at_skips_constant_head() {
        let k = Key::from_u64(0x0000_0000_0012_3456);
        assert_eq!(k.prefix_bits_at(0, 8), 0, "high byte is constant zero");
        assert_eq!(k.prefix_bits_at(5, 8), 0x12);
        assert_eq!(k.prefix_bits_at(5, 16), 0x1234);
    }

    #[test]
    fn prefix_bits_zero_extends_short_keys() {
        let k = Key::from_raw(vec![0x12]);
        assert_eq!(k.prefix_bits_at(0, 16), 0x1200);
    }

    #[test]
    fn debug_is_hex() {
        let k = Key::from_raw(vec![0x01, 0xff]);
        assert_eq!(format!("{k:?}"), "Key(01 ff)");
    }

    #[test]
    fn a_spilled_clone_shares_and_an_inline_clone_is_equal() {
        let long = Key::from_raw(vec![7u8; Key::INLINE_CAP + 1]);
        assert!(std::ptr::eq(long.as_bytes(), long.clone().as_bytes()));
        let short = Key::from_raw(vec![7u8; Key::INLINE_CAP]);
        let copy = short.clone();
        assert_eq!(short, copy);
        assert!(!std::ptr::eq(short.as_bytes(), copy.as_bytes()));
    }

    #[test]
    fn key_is_three_words() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(std::mem::size_of::<Option<Key>>(), 24);
    }

    /// Byte strings on both sides of the inline/spilled boundary, two per
    /// length so that equal-length keys differ only in their last byte.
    fn boundary_samples() -> Vec<Vec<u8>> {
        [1, Key::INLINE_CAP - 1, Key::INLINE_CAP, Key::INLINE_CAP + 1, 64]
            .into_iter()
            .flat_map(|len| {
                [1u8, 2].map(|last| {
                    let mut bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                    bytes[len - 1] = last;
                    bytes
                })
            })
            .collect()
    }

    fn default_hash(v: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn eq_ord_and_hash_are_those_of_the_byte_slice() {
        let samples = boundary_samples();
        for a in &samples {
            let ka = Key::from_raw(a.clone());
            assert_eq!(ka.as_bytes(), a.as_slice());
            assert_eq!(ka.len(), a.len());
            assert_eq!(default_hash(&ka), default_hash(&a.as_slice()), "len {}", a.len());
            for b in &samples {
                let kb = Key::from_raw(b.clone());
                assert_eq!(ka == kb, a == b, "{a:?} == {b:?}");
                assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} cmp {b:?}");
            }
        }
    }

    #[test]
    fn string_keys_cross_the_inline_boundary_intact() {
        for len in [Key::INLINE_CAP - 2, Key::INLINE_CAP - 1, Key::INLINE_CAP, 40] {
            let s = "x".repeat(len);
            let k = Key::from_str_bytes(&s);
            assert_eq!(k.len(), len + 1);
            assert_eq!(&k.as_bytes()[..len], s.as_bytes());
            assert_eq!(k.as_bytes()[len], 0);
        }
    }

    #[test]
    fn ipv4_key_orders_by_address() {
        let a = Key::from_ipv4([10, 0, 0, 1]);
        let b = Key::from_ipv4([10, 0, 1, 0]);
        assert!(a.as_bytes() < b.as_bytes());
    }
}
