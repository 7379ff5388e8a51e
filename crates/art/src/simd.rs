//! Vectorized kernels for the hot node-search paths, with portable
//! SWAR/scalar fallbacks.
//!
//! Three byte-level primitives dominate an ART traversal and are worth a
//! `std::arch` kernel each (the original ART paper's `_mm_cmpeq_epi8`
//! observation, and rart-rs's prior art for doing it in Rust):
//!
//! * [`search16`] — find a byte among the ≤16 sorted key lanes of an N16;
//! * [`present_bitmap`] — compress an N48's 256-byte index array into a
//!   256-bit occupancy bitmap, so ordered iteration walks set bits instead
//!   of probing all 256 slots;
//! * [`common_prefix_len`] — mismatch scan for path-compression prefixes
//!   and long-key comparisons.
//!
//! [`prefetch`] rounds the set out: a best-effort hint that the next tree
//! node will be needed, issued while the current node is still being
//! searched (the level-wise Traverse batches make the distance long enough
//! to matter).
//!
//! # Detection matrix
//!
//! Selection is purely compile-time — both supported ISAs guarantee their
//! vector baseline, so no runtime dispatch cost is paid:
//!
//! | target | kernel | gate |
//! |--------|--------|------|
//! | `x86_64` | SSE2 (`_mm_cmpeq_epi8` + `_mm_movemask_epi8`) | SSE2 is part of the `x86_64` baseline |
//! | `aarch64` | NEON (`vceqq_u8` + `vshrn_n_u16` mask) | NEON is part of the `aarch64` baseline |
//! | other targets | SWAR / scalar fallback | — |
//! | any target + `--features force-swar` | SWAR / scalar fallback | exercised by the CI `no-simd` job |
//!
//! Fallback guarantee: every kernel is a drop-in replacement for its
//! portable counterpart ([`search16_swar`], [`present_bitmap_scalar`],
//! [`common_prefix_len_swar`]); the unit tests here and the exhaustive
//! differential suite in `tests/simd_differential.rs` pin them equal at
//! every occupancy and byte value, so builds on any row of the matrix are
//! observationally identical.
//!
//! # Unsafe policy
//!
//! This module is the crate's **only** sanctioned home for `unsafe` (the
//! crate root carries `#![deny(unsafe_code)]`, opted back in here; the
//! workspace lint's P1 rule hard-errors on the `unsafe` token anywhere
//! outside `rules::UNSAFE_SANCTIONED`). The unsafety is confined to
//! `std::arch` loads/compares over fixed-size stack arrays with the bounds
//! spelled out at each site; no raw pointer escapes a kernel.
#![allow(unsafe_code)]

/// All-ones-per-lane constant for the SWAR search (`0x01` in each byte).
const LANE_LSB: u128 = u128::from_le_bytes([0x01; 16]);
/// High-bit-per-lane constant for the SWAR search (`0x80` in each byte).
const LANE_MSB: u128 = u128::from_le_bytes([0x80; 16]);

/// Lane of `byte` among the first `len` lanes of `keys`, or `None`.
///
/// Dispatches to the best compile-time kernel (see the module-level
/// detection matrix). The result is identical to [`search16_swar`] and to a
/// naive linear scan for every `(keys, len, byte)` with `len <= 16`; stale
/// bytes in lanes `len..` never influence the result.
#[inline]
pub fn search16(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
    imp::search16(keys, len, byte)
}

/// Portable SWAR [`search16`]: XOR with the splatted probe byte zeroes the
/// matching lanes of the `u128` view, and Mycroft's zero-byte detector
/// (`(x - 0x01…01) & !x & 0x80…80`) flags them. The detector can flag
/// false positives *above* a genuine zero lane, but never below one, so the
/// lowest flagged lane is always a true match; stale lanes past `len` are
/// rejected by the final bound check (live lanes precede stale lanes).
#[inline]
pub fn search16_swar(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
    debug_assert!(len <= 16);
    let lanes = u128::from_le_bytes(*keys);
    let diff = lanes ^ (LANE_LSB * u128::from(byte));
    let zeros = diff.wrapping_sub(LANE_LSB) & !diff & LANE_MSB;
    let lane = (zeros.trailing_zeros() / 8) as usize; // 16 when no lane matched
    (lane < len).then_some(lane)
}

/// Naive linear-scan [`search16`], the ground truth the vector kernels are
/// differentially tested against.
#[doc(hidden)]
#[inline]
// dcart_lint::allow(U1) -- ground truth the vector kernels are differentially tested against
pub fn search16_scalar(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
    debug_assert!(len <= 16);
    keys[..len].iter().position(|&k| k == byte)
}

/// 256-bit occupancy bitmap of a direct-mapped index array: bit `i` of the
/// result (word `i / 64`, bit `i % 64`) is set iff `index[i] != absent`.
///
/// This is the N48 ordered-iteration kernel: one vector sweep replaces 256
/// scalar sentinel probes, and iteration then walks only the set bits.
#[inline]
pub fn present_bitmap(index: &[u8; 256], absent: u8) -> [u64; 4] {
    imp::present_bitmap(index, absent)
}

/// Portable scalar [`present_bitmap`].
#[inline]
pub fn present_bitmap_scalar(index: &[u8; 256], absent: u8) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (i, &b) in index.iter().enumerate() {
        if b != absent {
            out[i >> 6] |= 1 << (i & 63);
        }
    }
    out
}

/// Length of the longest common prefix of two byte slices.
///
/// Vectorized in 16-byte strides where the ISA allows; the workloads' keys
/// are 4–24 bytes, but path-compression prefixes of deep DICT/IPGEO trees
/// and long-key comparisons benefit from the wide head.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let i = imp::mismatch_head(a, b, n);
    common_prefix_tail(a, b, i, n)
}

/// Portable [`common_prefix_len`] (8-byte SWAR strides + byte tail).
#[inline]
// dcart_lint::allow(U1) -- portable reference the vector kernel is differentially tested against
pub fn common_prefix_len_swar(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    common_prefix_tail(a, b, 0, n)
}

/// Finishes a mismatch scan from offset `i`: 8-byte XOR strides locate the
/// first differing byte via `trailing_zeros`, then a byte loop handles the
/// tail. `n` is the comparable length (`min` of the two slice lengths).
#[inline]
fn common_prefix_tail(a: &[u8], b: &[u8], mut i: usize, n: usize) -> usize {
    while i + 8 <= n {
        let xa = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte window is in bounds"));
        let xb = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte window is in bounds"));
        let x = xa ^ xb;
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Best-effort hint that `t` will be read soon (into all cache levels).
///
/// A no-op on targets without a stable prefetch intrinsic (including
/// `aarch64`, where `_prefetch` is still unstable) and under `force-swar`;
/// correctness never depends on it.
#[inline]
pub fn prefetch<T>(t: &T) {
    imp::prefetch(std::ptr::from_ref(t).cast());
}

/// [`prefetch`] of the lines holding the first and the last byte of `t`:
/// every line of a value no larger than a line, which may straddle two.
#[inline]
pub(crate) fn prefetch_ends<T>(t: &T) {
    let p = std::ptr::from_ref(t).cast::<i8>();
    imp::prefetch(p);
    imp::prefetch(p.wrapping_add(std::mem::size_of::<T>().saturating_sub(1)));
}

/// SSE2 kernels. SSE2 is part of the `x86_64` ABI baseline, so the
/// intrinsics are unconditionally available — no `is_x86_feature_detected!`
/// needed and no scalar dispatch branch paid.
#[cfg(all(target_arch = "x86_64", not(feature = "force-swar")))]
mod imp {
    #[allow(clippy::wildcard_imports)] // the std::arch intrinsic namespace is designed for it
    use std::arch::x86_64::*;

    #[inline]
    pub(super) fn search16(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
        debug_assert!(len <= 16);
        // SAFETY: `_mm_loadu_si128` is an unaligned 16-byte load, and
        // `keys` is exactly 16 bytes; SSE2 is baseline on x86_64.
        let eq = unsafe {
            _mm_cmpeq_epi8(_mm_loadu_si128(keys.as_ptr().cast()), _mm_set1_epi8(byte as i8))
        };
        // SAFETY: register-only SSE2 op.
        let mask = unsafe { _mm_movemask_epi8(eq) } as u32 & lane_mask(len);
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// Low `len` bits set (`len <= 16`).
    #[inline]
    fn lane_mask(len: usize) -> u32 {
        (1u32 << len) - 1
    }

    #[inline]
    pub(super) fn present_bitmap(index: &[u8; 256], absent: u8) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (w, chunk) in index.chunks_exact(64).enumerate() {
            let mut bits = 0u64;
            for c in 0..4 {
                // SAFETY: `chunk` is 64 bytes, so the 16-byte unaligned
                // load at offset `c * 16 <= 48` is in bounds.
                let empty = unsafe {
                    let v = _mm_loadu_si128(chunk.as_ptr().add(c * 16).cast());
                    _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(absent as i8)))
                } as u64;
                bits |= (!empty & 0xFFFF) << (c * 16);
            }
            out[w] = bits;
        }
        out
    }

    /// First mismatch offset in 16-byte strides; returns a position `i`
    /// that is either the exact mismatch or a stride boundary with fewer
    /// than 16 comparable bytes left (the caller's tail finishes there).
    #[inline]
    pub(super) fn mismatch_head(a: &[u8], b: &[u8], n: usize) -> usize {
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: both 16-byte unaligned loads are in bounds: the loop
            // condition guarantees `i + 16 <= n <= a.len(), b.len()`.
            let ne = unsafe {
                let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
                let vb = _mm_loadu_si128(b.as_ptr().add(i).cast());
                !(_mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) as u32) & 0xFFFF
            };
            if ne != 0 {
                return i + ne.trailing_zeros() as usize;
            }
            i += 16;
        }
        i
    }

    #[inline]
    pub(super) fn prefetch(p: *const i8) {
        // SAFETY: `_mm_prefetch` is a hint with no memory effects; it is
        // architecturally defined to be valid for any address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p) }
    }
}

/// NEON kernels. NEON (ASIMD) is part of the `aarch64` baseline. The
/// movemask substitute is the `vshrn` nibble trick: narrowing each 16-bit
/// lane of the compare result by 4 packs one nibble per byte lane into a
/// `u64`, with all-ones nibbles marking matches.
#[cfg(all(target_arch = "aarch64", not(feature = "force-swar")))]
mod imp {
    #[allow(clippy::wildcard_imports)] // the std::arch intrinsic namespace is designed for it
    use std::arch::aarch64::*;

    /// One nibble per byte lane: nibble `i` is `0xF` iff `keys[i] == byte`.
    #[inline]
    fn eq_nibbles(keys: *const u8, byte: u8) -> u64 {
        // SAFETY: callers pass a pointer to at least 16 readable bytes;
        // NEON is baseline on aarch64 and these are register-only ops
        // after the load.
        unsafe {
            let eq = vceqq_u8(vld1q_u8(keys), vdupq_n_u8(byte));
            vget_lane_u64::<0>(vreinterpret_u64_u8(vshrn_n_u16::<4>(vreinterpretq_u16_u8(eq))))
        }
    }

    #[inline]
    pub(super) fn search16(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
        debug_assert!(len <= 16);
        let mask = eq_nibbles(keys.as_ptr(), byte) & nibble_mask(len);
        (mask != 0).then(|| (mask.trailing_zeros() / 4) as usize)
    }

    /// Low `len` nibbles set (`len <= 16`).
    #[inline]
    fn nibble_mask(len: usize) -> u64 {
        if len == 16 {
            u64::MAX
        } else {
            (1u64 << (len * 4)) - 1
        }
    }

    #[inline]
    pub(super) fn present_bitmap(index: &[u8; 256], absent: u8) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (w, chunk) in index.chunks_exact(64).enumerate() {
            let mut bits = 0u64;
            for c in 0..4 {
                let empty = eq_nibbles(chunk[c * 16..].as_ptr(), absent);
                // Compress 16 nibbles to 16 bits (bit i = nibble i's LSB).
                for i in 0..16 {
                    bits |= (!(empty >> (4 * i)) & 1) << (c * 16 + i);
                }
            }
            out[w] = bits;
        }
        out
    }

    #[inline]
    pub(super) fn mismatch_head(a: &[u8], b: &[u8], n: usize) -> usize {
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: both 16-byte loads are in bounds (`i + 16 <= n`) and
            // the rest is register-only NEON.
            let eq = unsafe {
                let va = vld1q_u8(a.as_ptr().add(i));
                let vb = vld1q_u8(b.as_ptr().add(i));
                vget_lane_u64::<0>(vreinterpret_u64_u8(vshrn_n_u16::<4>(vreinterpretq_u16_u8(
                    vceqq_u8(va, vb),
                ))))
            };
            let ne = !eq;
            if ne != 0 {
                return i + (ne.trailing_zeros() / 4) as usize;
            }
            i += 16;
        }
        i
    }

    /// No stable prefetch intrinsic on aarch64 yet (`_prefetch` is
    /// unstable); hardware prefetchers cover the sequential cases.
    #[inline]
    pub(super) fn prefetch(_p: *const i8) {}
}

/// Portable fallback: SWAR/scalar kernels only. Selected on targets
/// without a vector baseline and whenever `force-swar` is enabled (the CI
/// `no-simd` job runs the whole test suite through this path).
#[cfg(any(not(any(target_arch = "x86_64", target_arch = "aarch64")), feature = "force-swar"))]
mod imp {
    #[inline]
    pub(super) fn search16(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
        super::search16_swar(keys, len, byte)
    }

    #[inline]
    pub(super) fn present_bitmap(index: &[u8; 256], absent: u8) -> [u64; 4] {
        super::present_bitmap_scalar(index, absent)
    }

    #[inline]
    pub(super) fn mismatch_head(_a: &[u8], _b: &[u8], _n: usize) -> usize {
        0
    }

    #[inline]
    pub(super) fn prefetch(_p: *const i8) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search16_agrees_with_swar_and_scalar_on_edges() {
        // Boundary bytes: 0x00, the 0x7F/0x80 high-bit edge, 0xFF; every
        // occupancy. The exhaustive sweep lives in tests/simd_differential.
        for len in 0..=16usize {
            let mut keys = [0xABu8; 16];
            for (i, slot) in keys.iter_mut().enumerate().take(len) {
                *slot = (i as u8) * 17; // 0, 17, ..., 255: sorted, unique
            }
            for probe in [0u8, 1, 0x7F, 0x80, 0xAB, 0xFE, 0xFF] {
                let want = search16_scalar(&keys, len, probe);
                assert_eq!(search16(&keys, len, probe), want, "len={len} probe={probe:#04x}");
                assert_eq!(search16_swar(&keys, len, probe), want, "len={len} probe={probe:#04x}");
            }
        }
    }

    #[test]
    fn present_bitmap_matches_scalar() {
        let mut index = [0xFFu8; 256];
        // A spread of occupied slots, including both word boundaries.
        for (i, b) in [0usize, 1, 63, 64, 127, 128, 191, 192, 255].iter().zip(0u8..) {
            index[*i] = b;
        }
        let got = present_bitmap(&index, 0xFF);
        assert_eq!(got, present_bitmap_scalar(&index, 0xFF));
        let ones: u32 = got.iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 9);
        assert_eq!(got[0] & 1, 1);
        assert_eq!(got[3] >> 63, 1);
    }

    #[test]
    fn common_prefix_len_all_lengths_and_positions() {
        // Every (length, mismatch position) pair through both kernels:
        // covers the 16-byte head, the 8-byte SWAR stride, and the tail.
        for n in 0..48usize {
            let a: Vec<u8> = (0..n as u8).map(|i| i.wrapping_mul(31)).collect();
            for pos in 0..=n {
                let mut b = a.clone();
                if pos < n {
                    b[pos] ^= 0x40;
                }
                let want = pos.min(n);
                assert_eq!(common_prefix_len(&a, &b), want, "n={n} pos={pos}");
                assert_eq!(common_prefix_len_swar(&a, &b), want, "n={n} pos={pos}");
            }
            // Unequal lengths clamp to the shorter slice.
            assert_eq!(common_prefix_len(&a, &a[..n / 2]), n / 2);
        }
    }

    #[test]
    fn prefetch_is_callable() {
        // Purely a hint; this pins that it is safe to call on any value.
        let v = [0u8; 64];
        prefetch(&v);
        prefetch(&v[63]);
    }
}
