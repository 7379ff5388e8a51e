//! # dcart-workloads — workload generators for the DCART evaluation
//!
//! Synthetic stand-ins for the paper's six workloads (§IV-A): three
//! "real-world" key distributions — [`ipgeo`] (GeoLite2 IP ranges),
//! [`dict`] (English words), [`email`] (e-mail addresses) — and the three
//! [`synth`] integer sets (DE/RS/RD). Operation streams with the A–E
//! read/write mixes and Zipfian popularity are built by [`generate_ops`].
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must not abort under malformed input or injected faults:
// fallible paths return `Result`s, and intentional invariant panics need an
// explicit, justified `allow`. Test code (cfg(test)) is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod arrivals;
pub mod dict;
pub mod email;
pub mod ipgeo;
mod keyset;
mod ops;
mod spec;
pub mod synth;
mod zipf;

pub use arrivals::Arrivals;
pub use keyset::KeySet;
pub use ops::{generate_ops, Mix, Op, OpKind, OpStreamConfig};
pub use spec::Workload;
pub use zipf::Zipfian;
