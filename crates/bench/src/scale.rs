//! Experiment scale presets.

use dcart::ExecOpts;

use crate::parallel::host_parallelism;

/// The size of a reproduction run, plus how the harness executes it.
///
/// The paper loads 50 M keys and issues up to 50 M operations per run; the
/// `default` preset shrinks both by 50× (with caches/buffers shrunk in
/// proportion by the platform models) so the complete exhibit suite runs in
/// minutes. Reported *ratios* are stable across scales; see EXPERIMENTS.md.
///
/// `jobs` and `exec` are the host-side execution options `repro` parses
/// (`--jobs`, `--sou-threads`, `--steal`). Every exhibit receives them
/// here and passes them on explicitly; neither changes a report byte.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Keys loaded before the measured stream.
    pub keys: usize,
    /// Operations in the measured stream.
    pub ops: usize,
    /// In-flight (concurrent) operations — the combining batch size.
    pub concurrency: usize,
    /// Seed for all generators.
    pub seed: u64,
    /// Worker threads the experiment cells fan over (the host's available
    /// parallelism by default).
    pub jobs: usize,
    /// How every CTT run inside the cells executes.
    pub exec: ExecOpts,
}

impl Scale {
    fn preset(keys: usize, ops: usize, concurrency: usize) -> Self {
        Scale {
            keys,
            ops,
            concurrency,
            seed: 42,
            jobs: host_parallelism(),
            exec: ExecOpts::default(),
        }
    }

    /// Tiny runs for CI and smoke testing (~seconds).
    pub fn smoke() -> Self {
        Self::preset(10_000, 60_000, 8_192)
    }

    /// The default reproduction scale (~minutes for the full suite).
    pub fn default_scale() -> Self {
        Self::preset(200_000, 2_000_000, 65_536)
    }

    /// Paper scale: 50 M keys, 50 M operations. Hours of runtime and
    /// ~10 GB of memory; use on a large machine only.
    pub fn paper() -> Self {
        Self::preset(50_000_000, 50_000_000, 1 << 20)
    }

    /// Parses `smoke` / `default` / `full`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "default" => Some(Self::default_scale()),
            "full" | "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(Scale::from_name("smoke").unwrap().keys, 10_000);
        assert_eq!(Scale::from_name("default").unwrap().keys, 200_000);
        assert_eq!(Scale::from_name("full").unwrap().keys, 50_000_000);
        assert!(Scale::from_name("bogus").is_none());
    }
}
