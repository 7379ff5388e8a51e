//! The three synthetic integer workloads of the paper's evaluation
//! (§IV-A): 8-byte integer keys, 50 M keys at paper scale.
//!
//! * **DE** — dense: keys `0..n` (inserted in random order);
//! * **RS** — random sparse: uniform draws from the full 64-bit space;
//! * **RD** — random dense: uniform draws from a window only 16× larger
//!   than the key count, so paths share most of their bytes.

use std::collections::BTreeSet;

use dcart_art::Key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::KeySet;

fn build(name: &str, mut values: Vec<u64>, n: usize, rng: &mut StdRng) -> KeySet {
    use rand::seq::SliceRandom;
    values.shuffle(rng);
    let pool_vals = values.split_off(n);
    let keys: Vec<Key> = values.into_iter().map(Key::from_u64).collect();
    let insert_pool: Vec<Key> = pool_vals.into_iter().map(Key::from_u64).collect();
    KeySet::with_shuffled_popularity(name, keys, insert_pool, rng)
}

/// Dense keys `0..n` (plus a pool of the next `n/4` integers).
pub fn dense(n: usize, seed: u64) -> KeySet {
    assert!(n > 0, "key count must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde00);
    let values: Vec<u64> = (0..(n + n / 4) as u64).collect();
    build("DE", values, n, &mut rng)
}

/// Random sparse 64-bit keys.
pub fn random_sparse(n: usize, seed: u64) -> KeySet {
    assert!(n > 0, "key count must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a00);
    let want = n + n / 4;
    let mut set: BTreeSet<u64> = BTreeSet::new();
    while set.len() < want {
        set.insert(rng.gen());
    }
    build("RS", set.into_iter().collect(), n, &mut rng)
}

/// Random dense keys: unique draws from `[0, 16 n)`.
pub fn random_dense(n: usize, seed: u64) -> KeySet {
    assert!(n > 0, "key count must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d00);
    let want = n + n / 4;
    let window = (want as u64) * 16;
    let mut set: BTreeSet<u64> = BTreeSet::new();
    while set.len() < want {
        set.insert(rng.gen_range(0..window));
    }
    build("RD", set.into_iter().collect(), n, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(k: &Key) -> u64 {
        u64::from_be_bytes(k.as_bytes().try_into().expect("8-byte integer key"))
    }

    #[test]
    fn dense_covers_exact_range() {
        let ks = dense(1000, 1);
        let mut vals: Vec<u64> = ks.keys.iter().map(int).collect();
        vals.extend(ks.insert_pool.iter().map(int));
        vals.sort_unstable();
        assert_eq!(vals, (0..1250u64).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_spreads_over_full_space() {
        let ks = random_sparse(2000, 2);
        let high_half = ks.keys.iter().filter(|k| int(k) > u64::MAX / 2).count();
        assert!((800..1200).contains(&high_half), "{high_half}");
    }

    #[test]
    fn random_dense_stays_in_window() {
        let n = 3000;
        let ks = random_dense(n, 3);
        let window = ((n + n / 4) as u64) * 16;
        assert!(ks.keys.iter().all(|k| int(k) < window));
    }

    #[test]
    fn pools_disjoint_from_keys() {
        for ks in [dense(500, 4), random_sparse(500, 4), random_dense(500, 4)] {
            let set: BTreeSet<&[u8]> = ks.keys.iter().map(|k| k.as_bytes()).collect();
            assert!(ks.insert_pool.iter().all(|k| !set.contains(k.as_bytes())), "{}", ks.name);
            assert_eq!(ks.keys.len(), 500);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_sparse(100, 9).keys, random_sparse(100, 9).keys);
    }
}
