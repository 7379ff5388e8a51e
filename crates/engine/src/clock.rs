//! Clock-domain arithmetic.

/// A clock domain with cycle/time conversions.
///
/// DCART is clocked conservatively at 230 MHz on the Alveo U280 (paper
/// §IV-A); CPU models run at their nominal frequencies.
///
/// # Examples
///
/// ```
/// use dcart_engine::Clock;
///
/// let clk = Clock::mhz(230.0);
/// assert!((clk.cycles_to_ns(230) - 1000.0).abs() < 1e-9);
/// assert_eq!(clk.ns_to_cycles(1000.0), 230);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Clock {
    freq_hz: f64,
}

impl Clock {
    /// Creates a clock at `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not positive.
    pub fn mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive");
        Clock { freq_hz: mhz * 1e6 }
    }

    /// Frequency in hertz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// Converts a cycle count to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e9 / self.freq_hz
    }

    /// Converts a duration in nanoseconds to cycles (rounded up).
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.freq_hz / 1e9).ceil() as u64
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_at_dcart_frequency() {
        let clk = Clock::mhz(230.0);
        let cycles = 1_000_000;
        let ns = clk.cycles_to_ns(cycles);
        assert_eq!(clk.ns_to_cycles(ns), cycles);
        assert!((clk.cycles_to_seconds(230_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ns_to_cycles_rounds_up() {
        let clk = Clock::mhz(1000.0); // 1 ns per cycle
        assert_eq!(clk.ns_to_cycles(0.1), 1);
        assert_eq!(clk.ns_to_cycles(1.0), 1);
        assert_eq!(clk.ns_to_cycles(1.1), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Clock::mhz(0.0);
    }
}
