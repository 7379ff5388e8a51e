//! # dcart-server — an overload-robust online serving layer for DCART
//!
//! The batch executor in `crates/core` answers the paper's question —
//! how fast can coalesced index batches run — but a *server* must answer
//! a harder one: what happens when requests arrive faster than batches
//! can drain? This crate is that answer, built on four pillars:
//!
//! * **Coalescing** ([`core_loop`]): a thread-per-connection front end
//!   ([`net`]) feeds one core loop that drains an inbox into CTT batches
//!   (whatever queued while the last batch ran, up to the batch-size
//!   watermark; the loop never waits to fill one), executes them on the
//!   existing bucket-sharded pool through the resumable
//!   [`CttSession`](dcart::CttSession) seam, and makes every batch
//!   durable through the PR-4 WAL *before* acknowledging — an acked
//!   write survives `kill -9`.
//! * **Deadlines** ([`admission`]): every request carries a budget,
//!   clamped and enforced at admission and again at flush; the clock is
//!   the [`Clock`](dcart_engine::time::Clock) *trait*, so the wall clock
//!   appears only in the binary and every test drives a `TestClock`.
//! * **Admission control** ([`admission`]): a bounded queue with typed
//!   [`RejectReason`](dcart_engine::RejectReason)s and bounded retry
//!   hints; a queue half full sheds scans, three quarters full reads too,
//!   and shedding ends as it drains — writes are never shed, only refused
//!   by a full queue, and acknowledged writes are never lied about.
//! * **A checkable wire contract** ([`wire`]): length-prefixed,
//!   checksummed `DCARTNET` frames with fixed-width keys (equal-length
//!   keys are prefix-free, so a hostile client cannot trigger executor
//!   aborts); corrupt bytes produce typed errors, never panics.
//!
//! The proof obligations are tier-1 tests, listed in DESIGN.md's
//! "Online serving & overload behavior": the server path produces
//! byte-identical digests to the offline repro path, rejections and
//! deadlines bound what an accepted request waits under overload, and a
//! mid-load kill loses zero acknowledged writes.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Library code must not abort under malformed input or injected faults:
// fallible paths return `Result`s, and intentional invariant panics need an
// explicit, justified `allow`. Test code (cfg(test)) is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod admission;
pub mod core_loop;
pub mod net;
pub mod signal;
pub mod stats;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmissionCounters};
pub use core_loop::{FileSync, Reply, ServerConfig, ServerCore, ServerShared};
pub use net::{serve, serve_seeded, CoreReport, ServeHandle};
pub use stats::{CoreSnapshot, ServerStats};
pub use wire::{
    decode_request, decode_response, encode_request, encode_request_into, encode_response,
    encode_response_into, read_frame, write_frame, FrameReader, Request, RequestKind, Response,
    Status, WireError, KEY_WIDTH, NET_MAGIC,
};
