//! # dcart-mem — memory-hierarchy simulation for the DCART reproduction
//!
//! Models the parts of the memory system the paper's analysis and design
//! rest on:
//!
//! * [`SetAssocCache`] — CPU cache with LRU replacement, replayed with the
//!   exact access streams of instrumented ART traversals;
//! * [`ObjectBuffer`] — on-chip BRAM scratchpads with LRU, FIFO, and the
//!   paper's **value-aware** replacement (§III-E);
//! * [`MemoryConfig`] — off-chip DDR/HBM latency, bandwidth and
//!   parallelism, charged by the accelerator model and the baselines;
//! * [`EnergyModel`] — per-platform power models behind Fig. 11;
//! * [`PersistStats`] — byte accounting for the durability layer (WAL and
//!   checkpoint traffic, set against the on-chip buffer capacities).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod buffer;
mod cache;
mod dram;
mod energy;
mod persist;

pub use buffer::{BufferOutcome, BufferPolicy, BufferStats, ObjectBuffer};
pub use cache::{Access, CacheStats, SetAssocCache, LINE_BYTES};
pub use dram::MemoryConfig;
pub use energy::EnergyModel;
pub use persist::PersistStats;
