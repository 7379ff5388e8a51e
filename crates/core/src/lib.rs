//! # dcart — a data-centric accelerator model for the Adaptive Radix Tree
//!
//! Reproduction of *"A Data-Centric Hardware Accelerator for Efficient
//! Adaptive Radix Tree"* (DAC 2025). DCART observes that concurrent index
//! operations exhibit strong temporal and spatial similarity — the same ART
//! nodes are touched by many operations within short intervals — and builds
//! a **Combine–Traverse–Trigger** (CTT) processing model around it:
//!
//! * a [PCU](pcu) combines operations into disjoint prefix buckets;
//! * a [Dispatcher](dispatcher::Dispatch) assigns each bucket to one of 16
//!   SOU pipelines ([`DcartAccel`]), so same-node operations never contend;
//! * a [`ShortcutTable`] caches resolved targets so hot operations skip
//!   traversal entirely. The paper's entry is `<Key_ID, target, parent>`,
//!   and the accelerator model charges all 24 bytes of it
//!   ([`ENTRY_BYTES`]); the host keeps `<Key_ID, target>`, because the
//!   arena keeps node ids stable when a parent changes type, so no entry
//!   ever needs its parent to be patched;
//! * a value-aware Tree buffer keeps frequently traversed nodes on chip.
//!
//! Two engines implement the model over the same functional core
//! ([`execute_ctt`]): [`DcartSoftware`] (the paper's DCART-C CPU version,
//! charged its runtime overheads) and [`DcartAccel`] (the 230 MHz FPGA
//! accelerator, modelled cycle-level).
//!
//! # Examples
//!
//! ```
//! use dcart::{DcartAccel, DcartConfig};
//! use dcart_baselines::{IndexEngine, RunConfig};
//! use dcart_workloads::{generate_ops, OpStreamConfig, Workload};
//!
//! let keys = Workload::Ipgeo.generate(10_000, 42);
//! let ops = generate_ops(&keys, &OpStreamConfig { count: 20_000, ..Default::default() });
//! let mut dcart = DcartAccel::new(DcartConfig::default().scaled_for_keys(10_000));
//! let report = dcart.run(&keys, &ops, &RunConfig::default());
//! assert!(report.throughput_mops() > 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must not abort under malformed input or injected faults:
// fallible paths return `Result`s, and intentional invariant panics need an
// explicit, justified `allow`. Test code (cfg(test)) is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod accel;
mod config;
mod ctt;
pub mod dispatcher;
pub mod durable;
mod error;
pub mod fxhash;
pub mod pcu;
mod shortcut;
mod software;

pub use accel::{AccelDetails, BatchTiming, DcartAccel};
pub use config::{DcartConfig, DegradeConfig};
pub use ctt::{
    execute_ctt, fold_digest, key_id, tree_digest, BatchEvent, BucketLoad, CttConsumer, CttOpEvent,
    CttSession, CttStats, ExecOpts, LoadReport, LockGroup, TraverseMode, MERGE_PATIENCE,
    SPLIT_FANOUT,
};
pub use dcart_engine::{CrashInjector, CrashPlan, CrashSite, FaultPlan, RecoveryStats, WalError};
pub use dcart_mem::PersistStats;
pub use durable::{
    read_checkpoint, read_checkpoint_pairs, run_durable, write_checkpoint, CheckpointJob,
    CheckpointPairs, DurabilityConfig, DurableLog, DurableOutcome, Opened,
};
pub use error::DcartError;
pub use shortcut::{ShortcutStats, ShortcutTable, ENTRY_BYTES};
pub use software::DcartSoftware;
