//! FxHash — the multiply-xor hasher used for small integer keys.
//!
//! The CTT hot path keys several per-batch maps by `NodeId` (a `u32`) or by
//! shortcut hash-bucket indices (`u64`). The standard library's SipHash is
//! DoS-resistant but an order of magnitude slower than needed for trusted
//! integer keys that live entirely inside one executor invocation. This is
//! the classic "Fx" construction (rotate–xor–multiply per word), which
//! hashes a `u32`/`u64` in a couple of cycles and distributes sequential
//! ids well enough for the open-addressed `std` tables.
//!
//! Not suitable for untrusted input (no collision resistance) — keep it on
//! internal integer keys only.

// dcart_lint::allow_file(D1) -- this module IS the sanctioned hasher: the
// std tables are re-exported with the seed-free FxBuildHasher, so their
// iteration order is a pure function of the inserted keys.
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// The Fx multiplier (a 64-bit odd constant derived from pi).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, non-cryptographic hasher for integer keys.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_keys_round_trip() {
        let mut m: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..10_000u32 {
            m.insert(i, u64::from(i) * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(&i), Some(&(u64::from(i) * 3)));
        }
    }

    #[test]
    fn sets_dedup() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sequential_ids_spread_across_the_table() {
        // The failure mode of a bad integer hasher is clustering of
        // sequential ids; count distinct hash values over a dense range.
        let mut seen: HashSet<u64> = HashSet::new();
        for i in 0..1_000u32 {
            let mut h = FxHasher::default();
            h.write_u32(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1_000, "no collisions on a dense u32 range");
    }

    #[test]
    fn a_key_hashes_as_its_bytes_on_both_sides_of_the_inline_boundary() {
        // Map iteration order is a function of this hash (lint rule D1), so
        // the key's representation must not leak into it.
        use std::hash::Hash;
        let cap = dcart_art::Key::INLINE_CAP;
        for len in [1, cap - 1, cap, cap + 1, 64] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 5 + 1) as u8).collect();
            let (mut of_key, mut of_bytes) = (FxHasher::default(), FxHasher::default());
            dcart_art::Key::from_raw(bytes.clone()).hash(&mut of_key);
            bytes.as_slice().hash(&mut of_bytes);
            assert_eq!(of_key.finish(), of_bytes.finish(), "len {len}");
        }
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"combine-traverse-trigger");
        let mut b = FxHasher::default();
        b.write(b"combine-traverse-trigger");
        assert_eq!(a.finish(), b.finish());
    }
}
