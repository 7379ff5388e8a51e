//! Off-chip memory configurations: DDR (CPU socket) and HBM (FPGA card,
//! GPU).
//!
//! These are parameters, not a model: the accelerator model and the CPU
//! and CuART baselines each charge their own event counts against the
//! fields they need — latency for dependent pointer chases, parallelism
//! for how many of them overlap, peak bandwidth for the bytes that must
//! cross the pins.

use serde::{Deserialize, Serialize};

/// Configuration of an off-chip memory system.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Latency of one access in nanoseconds (row activation + transfer).
    pub latency_ns: f64,
    /// Peak bandwidth in bytes per nanosecond (= GB/s).
    pub peak_bw_gbps: f64,
    /// Sustainable memory-level parallelism: how many independent accesses
    /// overlap on average (channels × banks the access stream can keep busy).
    pub parallelism: f64,
    /// Per-channel service occupancy of one request, ns. No timing model
    /// reads it; it stays because every report that embeds a
    /// `MemoryConfig` serializes it.
    pub service_ns: f64,
}

impl MemoryConfig {
    /// DDR4-3200 behind a dual-socket Xeon: ~87 ns loaded latency,
    /// ~200 GB/s per socket pair combined, moderate MLP for pointer chases.
    pub fn ddr_xeon() -> Self {
        MemoryConfig { latency_ns: 87.0, peak_bw_gbps: 200.0, parallelism: 10.0, service_ns: 25.0 }
    }

    /// HBM2 on the Alveo U280: 8 GB over 32 pseudo-channels, ~460 GB/s,
    /// ~106 ns latency, high MLP for independent channel streams.
    pub fn hbm_u280() -> Self {
        MemoryConfig { latency_ns: 106.0, peak_bw_gbps: 460.0, parallelism: 32.0, service_ns: 4.5 }
    }

    /// HBM2e on an A100: ~1555 GB/s, ~200 ns effective latency under load.
    pub fn hbm_a100() -> Self {
        MemoryConfig { latency_ns: 200.0, peak_bw_gbps: 1555.0, parallelism: 64.0, service_ns: 2.5 }
    }
}
