//! The byte-level node-search primitives of an ART traversal, and a cache
//! hint.
//!
//! * [`search16`] — find a byte among the ≤16 sorted key lanes of an N16;
//! * [`common_prefix_len`] — mismatch scan for path-compression prefixes
//!   and long-key comparisons.
//!
//! Both are portable SWAR/scalar code, the same on every target. SSE2 and
//! NEON kernels for them were measured and deleted: they saved about 1 ns
//! per N16 visit, against 400–450 ns of CPU per executor operation spent
//! mostly waiting on cache misses (DESIGN.md, "Vectorized and
//! level-synchronous traversal").
//!
//! [`prefetch`] rounds the set out: a best-effort hint that the next tree
//! node will be needed, issued while the current node is still being
//! searched. By target:
//!
//! * `x86_64`: `_mm_prefetch` (SSE is part of the `x86_64` baseline);
//! * every other target: a no-op (`aarch64`'s `_prefetch` is unstable).
//!
//! The `x86_64` prefetch is the crate's one `unsafe` block: the crate root
//! carries `#![deny(unsafe_code)]` and only that function opts back in.

/// All-ones-per-lane constant for the SWAR search (`0x01` in each byte).
const LANE_LSB: u128 = u128::from_le_bytes([0x01; 16]);
/// High-bit-per-lane constant for the SWAR search (`0x80` in each byte).
const LANE_MSB: u128 = u128::from_le_bytes([0x80; 16]);

/// Lane of `byte` among the first `len` lanes of `keys`, or `None`.
///
/// XOR with the splatted probe byte zeroes the matching lanes of the
/// `u128` view, and Mycroft's zero-byte detector
/// (`(x - 0x01…01) & !x & 0x80…80`) flags them. The detector can flag
/// false positives *above* a genuine zero lane, but never below one, so the
/// lowest flagged lane is always a true match; stale lanes past `len` are
/// rejected by the final bound check (live lanes precede stale lanes), so
/// stale bytes never influence the result.
#[inline]
pub fn search16(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
    debug_assert!(len <= 16);
    let lanes = u128::from_le_bytes(*keys);
    let diff = lanes ^ (LANE_LSB * u128::from(byte));
    let zeros = diff.wrapping_sub(LANE_LSB) & !diff & LANE_MSB;
    let lane = (zeros.trailing_zeros() / 8) as usize; // 16 when no lane matched
    (lane < len).then_some(lane)
}

/// Length of the longest common prefix of two byte slices: 8-byte XOR
/// strides locate the first differing byte via `trailing_zeros`, then a
/// byte loop handles the tail.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
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
/// A no-op off `x86_64`; correctness never depends on it.
#[inline]
pub fn prefetch<T>(t: &T) {
    prefetch_line(std::ptr::from_ref(t).cast());
}

/// [`prefetch`] of the lines holding the first and the last byte of `t`:
/// every line of a value no larger than a line, which may straddle two.
#[inline]
pub(crate) fn prefetch_ends<T>(t: &T) {
    let p = std::ptr::from_ref(t).cast::<i8>();
    prefetch_line(p);
    prefetch_line(p.wrapping_add(std::mem::size_of::<T>().saturating_sub(1)));
}

/// Requests the cache line holding `p`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[allow(unsafe_code)]
fn prefetch_line(p: *const i8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: `_mm_prefetch` is a hint with no memory effects; it is
    // architecturally defined to be valid for any address.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p) }
}

/// No stable prefetch intrinsic here; hardware prefetchers cover the
/// sequential cases.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn prefetch_line(_p: *const i8) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_callable() {
        // Purely a hint; this pins that it is safe to call on any value.
        let v = [0u8; 64];
        prefetch(&v);
        prefetch(&v[63]);
    }
}
