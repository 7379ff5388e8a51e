//! Operation streams: read/write mixes over a key set.
//!
//! The paper's default mix is 50 % read / 50 % write (§IV-A); the
//! sensitivity study (Fig. 12(b)) sweeps mixes A–E from 100 % read to
//! 100 % write. Writes are a blend of updates to existing keys (which
//! contend on hot nodes) and inserts of fresh keys (which restructure the
//! tree and trigger node-type changes).

use dcart_art::Key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{KeySet, Zipfian};

/// The kind of an index operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Point lookup of an existing (usually) key.
    Read,
    /// Overwrite the value of an existing key.
    Update,
    /// Insert a fresh key.
    Insert,
    /// Remove a key.
    Remove,
    /// Range scan: read consecutive keys starting at the given key. The
    /// operation's `value` field carries the scan length. Not part of the
    /// paper's evaluation mixes (which are point reads/writes); provided
    /// as the range-query extension that motivates tree indexes over hash
    /// indexes (paper §V).
    Scan,
}

impl OpKind {
    /// `true` for operations that modify the tree or a value.
    pub fn is_write(self) -> bool {
        !matches!(self, OpKind::Read | OpKind::Scan)
    }
}

/// One index operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// The key to do it to.
    pub key: Key,
    /// Value payload for writes.
    pub value: u64,
}

/// A read/write mix (paper Fig. 12(b) nomenclature).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Mix {
    /// Fraction of reads in `[0, 1]`.
    pub read_fraction: f64,
    /// Of the writes, the fraction that insert fresh keys (the rest are
    /// updates to existing keys).
    pub insert_fraction_of_writes: f64,
    /// Fraction of *reads* that are range scans instead of point lookups
    /// (0 in all paper mixes; the range-query extension).
    pub scan_fraction_of_reads: f64,
}

impl Mix {
    /// Workload A: 100 % read.
    pub const A: Mix =
        Mix { read_fraction: 1.0, insert_fraction_of_writes: 0.3, scan_fraction_of_reads: 0.0 };
    /// Workload B: 75 % read, 25 % write.
    pub const B: Mix =
        Mix { read_fraction: 0.75, insert_fraction_of_writes: 0.3, scan_fraction_of_reads: 0.0 };
    /// Workload C: 50 % read, 50 % write — the paper's default.
    pub const C: Mix =
        Mix { read_fraction: 0.5, insert_fraction_of_writes: 0.3, scan_fraction_of_reads: 0.0 };
    /// Workload D: 25 % read, 75 % write.
    pub const D: Mix =
        Mix { read_fraction: 0.25, insert_fraction_of_writes: 0.3, scan_fraction_of_reads: 0.0 };
    /// Workload E: 100 % write.
    pub const E: Mix =
        Mix { read_fraction: 0.0, insert_fraction_of_writes: 0.3, scan_fraction_of_reads: 0.0 };

    /// Turns a share of this mix's reads into range scans.
    pub fn with_scans(mut self, scan_fraction_of_reads: f64) -> Mix {
        self.scan_fraction_of_reads = scan_fraction_of_reads;
        self
    }

    /// All five named mixes with their paper labels.
    pub fn named() -> [(char, Mix); 5] {
        [('A', Mix::A), ('B', Mix::B), ('C', Mix::C), ('D', Mix::D), ('E', Mix::E)]
    }
}

/// Configuration for operation-stream generation.
#[derive(Clone, Copy, Debug)]
pub struct OpStreamConfig {
    /// Number of operations to generate.
    pub count: usize,
    /// Read/write mix.
    pub mix: Mix,
    /// Zipfian skew over key popularity (YCSB default 0.99).
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpStreamConfig {
    fn default() -> Self {
        OpStreamConfig { count: 100_000, mix: Mix::C, theta: 0.99, seed: 42 }
    }
}

/// Generates an operation stream over `keys`.
///
/// Reads and updates target loaded keys through the key set's popularity
/// order (rank 0 hottest); inserts consume the key set's insert pool,
/// cycling if exhausted.
///
/// # Examples
///
/// ```
/// use dcart_workloads::{generate_ops, synth, Mix, OpStreamConfig};
///
/// let keys = synth::dense(1_000, 1);
/// let ops = generate_ops(&keys, &OpStreamConfig { count: 10_000, ..Default::default() });
/// assert_eq!(ops.len(), 10_000);
/// let reads = ops.iter().filter(|o| !o.kind.is_write()).count();
/// assert!((4_500..5_500).contains(&reads), "mix C is ~50% reads");
/// ```
pub fn generate_ops(keys: &KeySet, config: &OpStreamConfig) -> Vec<Op> {
    assert!(!keys.is_empty(), "key set must be non-empty");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0b5e_55ed);
    let zipf = Zipfian::new(keys.len() as u64, config.theta);
    let mut pool_cursor = 0usize;
    let mut ops = Vec::with_capacity(config.count);
    for i in 0..config.count {
        let is_read = rng.gen::<f64>() < config.mix.read_fraction;
        let kind = if is_read {
            if rng.gen::<f64>() < config.mix.scan_fraction_of_reads {
                OpKind::Scan
            } else {
                OpKind::Read
            }
        } else if !keys.insert_pool.is_empty()
            && rng.gen::<f64>() < config.mix.insert_fraction_of_writes
        {
            OpKind::Insert
        } else {
            OpKind::Update
        };
        let key = match kind {
            OpKind::Insert => {
                let k = keys.insert_pool[pool_cursor % keys.insert_pool.len()].clone();
                pool_cursor += 1;
                k
            }
            _ => keys.key_at_rank(zipf.sample(&mut rng)).clone(),
        };
        // For scans the value field carries the scan length (10..=100).
        let value = if kind == OpKind::Scan { rng.gen_range(10..=100u64) } else { i as u64 };
        ops.push(Op { kind, key, value });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn an_op_is_five_words() {
        // Kind + inline 24-byte key + value: a batch is walked in place, so
        // its stride is what the executor's cache footprint is made of.
        assert!(std::mem::size_of::<Op>() <= 40);
    }

    #[test]
    fn mix_fractions_hold() {
        let keys = synth::dense(1_000, 1);
        for (label, mix) in Mix::named() {
            let cfg = OpStreamConfig { count: 20_000, mix, ..Default::default() };
            let ops = generate_ops(&keys, &cfg);
            let reads = ops.iter().filter(|o| o.kind == OpKind::Read).count() as f64;
            let got = reads / ops.len() as f64;
            assert!((got - mix.read_fraction).abs() < 0.02, "mix {label}: read fraction {got}");
        }
    }

    #[test]
    fn inserts_come_from_pool() {
        let keys = synth::dense(500, 2);
        let cfg = OpStreamConfig { count: 5_000, mix: Mix::E, ..Default::default() };
        let ops = generate_ops(&keys, &cfg);
        let pool: std::collections::BTreeSet<&[u8]> =
            keys.insert_pool.iter().map(|k| k.as_bytes()).collect();
        for op in ops.iter().filter(|o| o.kind == OpKind::Insert) {
            assert!(pool.contains(op.key.as_bytes()));
        }
    }

    #[test]
    fn skew_makes_hot_keys_repeat() {
        let keys = synth::dense(10_000, 3);
        let cfg = OpStreamConfig { count: 50_000, mix: Mix::A, theta: 0.99, seed: 5 };
        let ops = generate_ops(&keys, &cfg);
        let mut counts = std::collections::HashMap::new();
        for op in &ops {
            *counts.entry(op.key.as_bytes().to_vec()).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 1_000, "hottest key drew {max} ops");
    }

    #[test]
    fn scan_mix_produces_scans_with_lengths() {
        let keys = synth::dense(1_000, 7);
        let mix = Mix::A.with_scans(0.5);
        let ops = generate_ops(&keys, &OpStreamConfig { count: 10_000, mix, ..Default::default() });
        let scans: Vec<&Op> = ops.iter().filter(|o| o.kind == OpKind::Scan).collect();
        assert!((4_000..6_000).contains(&scans.len()), "{}", scans.len());
        assert!(scans.iter().all(|o| (10..=100).contains(&o.value)));
        assert!(scans.iter().all(|o| !o.kind.is_write()));
    }

    #[test]
    fn deterministic_given_seed() {
        let keys = synth::dense(100, 4);
        let cfg = OpStreamConfig::default();
        let cfg = OpStreamConfig { count: 1000, ..cfg };
        assert_eq!(generate_ops(&keys, &cfg), generate_ops(&keys, &cfg));
    }
}
