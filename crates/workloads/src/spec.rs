//! The six paper workloads, addressable by name, with scaling.

use serde::{Deserialize, Serialize};

use crate::{dict, email, ipgeo, synth, KeySet};

/// The workloads of the paper's evaluation (§IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Workload {
    /// IP-address records (GeoLite2-Country stand-in).
    Ipgeo,
    /// English dictionary words.
    Dict,
    /// E-mail addresses.
    Email,
    /// Dense 8-byte integers.
    DenseInt,
    /// Random sparse 8-byte integers.
    RandomSparse,
    /// Random dense 8-byte integers.
    RandomDense,
}

impl Workload {
    /// All six, in the paper's presentation order.
    pub const ALL: [Workload; 6] = [
        Workload::Ipgeo,
        Workload::Dict,
        Workload::Email,
        Workload::DenseInt,
        Workload::RandomSparse,
        Workload::RandomDense,
    ];

    /// The three "real-world" workloads (Figs. 3 and 10 use only these).
    pub const REAL_WORLD: [Workload; 3] = [Workload::Ipgeo, Workload::Dict, Workload::Email];

    /// The paper's short name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ipgeo => "IPGEO",
            Workload::Dict => "DICT",
            Workload::Email => "EA",
            Workload::DenseInt => "DE",
            Workload::RandomSparse => "RS",
            Workload::RandomDense => "RD",
        }
    }

    /// Parses a paper short name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Workload> {
        let upper = name.to_ascii_uppercase();
        Workload::ALL.into_iter().find(|w| w.name() == upper)
    }

    /// Generates the key set at `n` keys with the given seed.
    pub fn generate(self, n: usize, seed: u64) -> KeySet {
        match self {
            Workload::Ipgeo => ipgeo::generate(n, seed),
            Workload::Dict => dict::generate(n, seed),
            Workload::Email => email::generate(n, seed),
            Workload::DenseInt => synth::dense(n, seed),
            Workload::RandomSparse => synth::random_sparse(n, seed),
            Workload::RandomDense => synth::random_dense(n, seed),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("ipgeo"), Some(Workload::Ipgeo));
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn all_generate_nonempty() {
        for w in Workload::ALL {
            let ks = w.generate(200, 1);
            assert_eq!(ks.keys.len(), 200, "{w}");
            assert!(!ks.insert_pool.is_empty(), "{w}");
        }
    }
}
