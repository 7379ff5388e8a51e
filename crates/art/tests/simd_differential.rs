//! Exhaustive differential tests for the `simd` search primitives: the
//! module's SWAR kernels and a naive scalar reference must agree on
//! *every* input the node layouts can produce — every occupancy 0..=16
//! and all 256 byte values for the N16 search, every (length, mismatch
//! position) pair for the prefix scan.

use dcart_art::simd;

/// Naive scalar ground truth for the N16 lane search.
fn search16_naive(keys: &[u8; 16], len: usize, byte: u8) -> Option<usize> {
    keys[..len].iter().position(|&k| k == byte)
}

/// N16 search: every occupancy 0..=16, every probe byte 0..=255, across
/// several sorted-unique key-set shapes (phases × strides, as a real Node16
/// maintains) with garbage in the stale lanes: a constant byte that no
/// live lane holds, and bytes that *do* occur in live lanes elsewhere — the
/// nastiest case for masking bugs. The probes include the boundary bytes
/// 0x00, 0x7F/0x80 (the zero-byte detector's high-bit edge) and 0xFF.
#[test]
fn n16_search_simd_swar_scalar_agree_exhaustively() {
    let mut cases = 0u64;
    for phase in [0u16, 1, 7, 127, 128, 200, 240] {
        for stride in [1u16, 2, 3, 15, 16, 17] {
            for len in 0..=16usize {
                let mut keys = [0u8; 16];
                for (i, slot) in keys.iter_mut().enumerate().take(len) {
                    *slot = (phase + stride * i as u16).min(255) as u8;
                }
                let live = &mut keys[..len];
                live.sort_unstable();
                if live.windows(2).any(|w| w[0] == w[1]) {
                    continue; // Node16 keys are unique; skip collapsed sets
                }
                let cyclic = [0x00, 0xFF, 0x80, phase.min(255) as u8];
                for stale in [[0xAB; 4], cyclic] {
                    for (j, slot) in keys.iter_mut().enumerate().skip(len) {
                        *slot = stale[j % 4];
                    }
                    for probe in 0..=255u8 {
                        assert_eq!(
                            simd::search16(&keys, len, probe),
                            search16_naive(&keys, len, probe),
                            "len={len} phase={phase} stride={stride} probe={probe:#04x} keys={keys:?}"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 200_000, "sweep collapsed to {cases} cases");
}

/// Prefix comparison: every (length, mismatch position) pair up to beyond
/// several 8-byte strides, for two byte patterns and two ways of breaking
/// the match, against the iterator-zip ground truth.
#[test]
fn common_prefix_simd_swar_scalar_agree_exhaustively() {
    type ByteMap = fn(u8) -> u8;
    let patterns: [(ByteMap, ByteMap); 2] = [
        (|i| i.wrapping_mul(29).wrapping_add(3), |b| b.wrapping_add(1)),
        (|i| i.wrapping_mul(31), |b| b ^ 0x40),
    ];
    for (fill, flip) in patterns {
        for n in 0..=64usize {
            let a: Vec<u8> = (0..n as u8).map(fill).collect();
            for pos in 0..=n {
                let mut b = a.clone();
                if pos < n {
                    b[pos] = flip(b[pos]);
                }
                let want = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
                assert_eq!(want, pos.min(n));
                assert_eq!(simd::common_prefix_len(&a, &b), want, "n={n} pos={pos}");
                // Length asymmetry clamps to the shorter slice, both ways.
                assert_eq!(simd::common_prefix_len(&a, &b[..pos.min(n)]), pos.min(n));
                assert_eq!(simd::common_prefix_len(&b[..pos.min(n)], &a), pos.min(n));
            }
            assert_eq!(simd::common_prefix_len(&a, &a[..n / 2]), n / 2);
        }
    }
}
