//! The [`IndexEngine`] abstraction and shared run configuration.

use dcart_workloads::{KeySet, Op};

use crate::report::RunReport;

/// Run-level knobs common to all engines.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of in-flight (concurrent) operations. This is the x-axis of
    /// the paper's Fig. 2(d) and Fig. 12(a): both the collision window of
    /// the CPU/GPU engines and the combining batch of DCART.
    pub concurrency: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { concurrency: 65_536 }
    }
}

/// An index engine: loads a key set, executes an operation stream, and
/// reports modelled time, energy, and event counters.
pub trait IndexEngine {
    /// The engine's display name ("ART", "SMART", "CuART", "DCART-C",
    /// "DCART").
    fn name(&self) -> &'static str;

    /// Executes `ops` over a tree loaded with `keys`.
    fn run(&mut self, keys: &KeySet, ops: &[Op], run: &RunConfig) -> RunReport;
}
