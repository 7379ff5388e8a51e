//! # dcart-engine — timing, fault and persistence primitives for the DCART reproduction
//!
//! Small, deterministic timing primitives shared by the platform
//! simulators:
//!
//! * [`Clock`] — cycle/time conversions (DCART runs at 230 MHz);
//! * [`LatencyRecorder`] — latency percentiles for the throughput–latency
//!   curves (paper Fig. 10);
//! * [`EventQueue`] / [`NonBlockingUnit`] — discrete-event primitives that
//!   validate the accelerator's closed-form SOU timing;
//! * [`par_for_each_mut`] / [`par_for_each_mut_balanced`] — scoped worker
//!   pools over disjoint `&mut` shards, used by the CTT executor to run
//!   prefix-disjoint buckets on host threads with deterministic
//!   (thread-count-independent) outcomes; the balanced variant adds
//!   per-worker [`StealQueue`] deques with steal-half load balancing for
//!   skewed shard costs;
//! * [`faults`] — deterministic seed-driven fault injection
//!   ([`FaultPlan`], [`FaultInjector`]), bounded retry ([`RetryPolicy`]),
//!   graceful degradation ([`DegradationController`]), recovery
//!   accounting ([`RecoveryStats`]) and deterministic crash planning
//!   ([`CrashPlan`], [`CrashInjector`]) shared by the memory, accelerator
//!   and durability models;
//! * [`wal`] — a write-ahead log with length-prefixed, checksummed batch
//!   records and torn-tail detection, the persistence substrate of the
//!   durable executor in `crates/core`;
//! * [`SyncHandoff`] — the bounded hand-off between a thread that writes
//!   commit marks and the thread that fsyncs them: an item is released
//!   only by a sync that began after it was queued (model-checked in
//!   `tests/loom.rs`; `dcart-server`'s commit pipeline wraps the waits
//!   around it);
//! * [`time`] — the monotonic [`time::Clock`] trait the serving layer's
//!   deadlines are written against ([`time::TestClock`] everywhere except
//!   the server binary, which injects the real clock), and
//!   [`RejectReason`] — the typed admission-control rejection vocabulary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must not abort under malformed input or injected faults:
// fallible paths return `Result`s, and intentional invariant panics need an
// explicit, justified `allow`. Test code (cfg(test)) is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod clock;
mod event;
pub mod faults;
mod handoff;
mod pool;
mod queueing;
pub mod time;
pub mod wal;

pub use clock::Clock;
pub use event::{EventQueue, NonBlockingUnit};
pub use faults::{
    CrashInjector, CrashPlan, CrashSite, DegradationController, FaultInjector, FaultPlan,
    FaultSite, RecoveryStats, RetryOutcome, RetryPolicy,
};
pub use handoff::SyncHandoff;
pub use pool::{par_for_each_mut, par_for_each_mut_balanced, PoolStats};
pub use queueing::{BoundedQueue, LatencyRecorder, RejectReason, StealQueue};
pub use wal::{WalBatch, WalError, WalScan, WalWriter};
