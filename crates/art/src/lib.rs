//! # dcart-art — the Adaptive Radix Tree substrate
//!
//! A from-scratch implementation of the Adaptive Radix Tree (ART) of
//! Leis et al. (ICDE'13), built as the substrate for the DCART (DAC 2025)
//! reproduction. It provides:
//!
//! * [`Art`] — a single-writer ART with the four adaptive node layouts
//!   (N4/N16/N48/N256), pessimistic path compression, and lazy expansion;
//! * [`Key`] — binary-comparable, prefix-free key encodings;
//! * a [`Tracer`] instrumentation interface that reports node visits,
//!   partial-key matches, and lock events, feeding the platform simulators
//!   in the sibling crates.
//!
//! # Examples
//!
//! ```
//! use dcart_art::{Art, Key};
//!
//! let mut index = Art::new();
//! index.insert(Key::from_str_bytes("art"), "adaptive radix tree")?;
//! index.insert(Key::from_str_bytes("dcart"), "data-centric ART accelerator")?;
//!
//! assert_eq!(
//!     index.get(&Key::from_str_bytes("dcart")),
//!     Some(&"data-centric ART accelerator")
//! );
//!
//! // Ordered range scans come for free with a radix tree.
//! let all: Vec<&str> = index.iter().map(|(_, v)| *v).collect();
//! assert_eq!(all, vec!["adaptive radix tree", "data-centric ART accelerator"]);
//! # Ok::<(), dcart_art::ArtError>(())
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the `simd` module — and only it — opts back in with
// a reviewed `#![allow(unsafe_code)]` for `std::arch` kernels. The xtask P1
// lint hard-errors on the `unsafe` token anywhere else in the workspace.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod arena;
mod batch;
mod inline;
mod key;
pub mod node;
mod serde_impl;
pub mod simd;
mod trace;
mod tree;
mod validate;

pub use batch::LevelWiseScratch;
pub use key::Key;
pub use node::{NodeId, NodeType};
pub use serde_impl::{
    SnapshotEntries, SnapshotError, SnapshotWriter, WrittenSnapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use trace::{NodeVisit, NoopTracer, OpTrace, RecordingTracer, Tracer, VisitKind};
pub use tree::{Art, ArtError, Range, ScanCursor, TypeHistogram};
pub use validate::Violation;
