//! Platform energy models (paper Fig. 11).
//!
//! The paper measures energy with platform power meters (CPU Energy Meter,
//! `nvidia-smi`, `xbutil`), i.e. *power × runtime* plus whatever dynamic
//! activity the meter integrates. This module mirrors that: each platform
//! has an average active power draw, plus small dynamic per-access terms for
//! off-chip and on-chip traffic.
//!
//! The default power figures are calibrated so the *ratios* between
//! platforms sit where the paper's reported energy-saving-to-speedup ratios
//! put them (CPU/FPGA ≈ 2.5–3.4×, GPU/FPGA ≈ 3.4–4.0×): package power of a
//! busy dual-Xeon on a memory-bound index workload, an A100 under partial
//! load, and an Alveo U280 board.

/// Energy-model parameters for one platform.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Average active power draw while the workload runs, in watts.
    pub active_power_w: f64,
    /// Dynamic energy per off-chip byte transferred, in nanojoules.
    pub offchip_nj_per_byte: f64,
    /// Dynamic energy per on-chip buffer/cache access, in nanojoules.
    pub onchip_nj_per_access: f64,
}

impl EnergyModel {
    /// Dual-socket Xeon Platinum 8468 running a memory-bound index
    /// workload (package + DRAM power integrated by CPU Energy Meter).
    pub fn cpu_xeon() -> Self {
        EnergyModel { active_power_w: 180.0, offchip_nj_per_byte: 0.15, onchip_nj_per_access: 0.5 }
    }

    /// NVIDIA A100 under the partial utilization a pointer-chasing index
    /// workload achieves (`nvidia-smi` board power).
    pub fn gpu_a100() -> Self {
        EnergyModel { active_power_w: 205.0, offchip_nj_per_byte: 0.06, onchip_nj_per_access: 0.2 }
    }

    /// Xilinx Alveo U280 board power as reported by `xbutil`.
    pub fn fpga_u280() -> Self {
        EnergyModel { active_power_w: 55.0, offchip_nj_per_byte: 0.04, onchip_nj_per_access: 0.05 }
    }

    /// Energy in joules for a run of `time_s` seconds that moved
    /// `offchip_bytes` across the memory pins and made `onchip_accesses`
    /// buffer/cache accesses.
    pub fn energy_joules(&self, time_s: f64, offchip_bytes: u64, onchip_accesses: u64) -> f64 {
        self.active_power_w * time_s
            + self.offchip_nj_per_byte * offchip_bytes as f64 * 1e-9
            + self.onchip_nj_per_access * onchip_accesses as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_term_dominates_for_long_runs() {
        let m = EnergyModel::cpu_xeon();
        let e = m.energy_joules(10.0, 1 << 30, 1 << 20);
        assert!((e - 1800.0).abs() / 1800.0 < 0.15, "{e}");
    }

    #[test]
    fn platform_power_ordering_matches_paper_ratios() {
        let cpu = EnergyModel::cpu_xeon().active_power_w;
        let gpu = EnergyModel::gpu_a100().active_power_w;
        let fpga = EnergyModel::fpga_u280().active_power_w;
        let cpu_ratio = cpu / fpga;
        let gpu_ratio = gpu / fpga;
        // Paper: energy-saving / speedup ratios fall in these bands.
        assert!((2.5..=3.4).contains(&cpu_ratio), "{cpu_ratio}");
        assert!((3.4..=4.1).contains(&gpu_ratio), "{gpu_ratio}");
    }

    #[test]
    fn dynamic_terms_scale_with_traffic() {
        let m = EnergyModel::fpga_u280();
        let quiet = m.energy_joules(1.0, 0, 0);
        let busy = m.energy_joules(1.0, 10 << 30, 0);
        assert!(busy > quiet);
        assert!((busy - quiet - 0.04 * (10u64 << 30) as f64 * 1e-9).abs() < 1e-9);
    }
}
