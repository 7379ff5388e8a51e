//! The measured phase as a row of windows of equal work, and the run's
//! end-to-end numbers as medians over them.
//!
//! The host is a shared two-core VM whose speed wanders: for seconds or for
//! a minute at a time every memory access of the guest costs up to three
//! times as much (neighbours; hardly any of it shows as steal time), and the
//! rate of a whole run follows. Medians over a run's windows absorb short
//! bursts but not a slow minute. Each window therefore also times a fixed
//! reference kernel, the [`SpeedProbe`], a few times, and a window's rate
//! and CPU time are scaled in proportion to how much slower or faster than
//! the workload's reference time the probe ran in that window: the numbers
//! reported are those of a host on which the probe takes the reference
//! time, which is this sandbox when it is left alone.

use std::time::Instant;

use crate::procfs;
use crate::stats::median;

/// Steps of one probe run.
const PROBE_STEPS: usize = 20_000;
/// Entries of the probe's array: 2 MiB of `u32`, half of a core's L2.
const PROBE_ENTRIES: usize = 1 << 19;
/// The reference kernel: dependent loads around one random cycle through an
/// array, the access pattern of a tree descent. Its time moves with the
/// executor's time per operation (correlation 0.8 to 0.9 over the windows of
/// a run), while an arithmetic loop's time stays flat and tells nothing.
pub struct SpeedProbe {
    next: Vec<u32>,
    at: u32,
}

impl SpeedProbe {
    pub fn new() -> Self {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut next: Vec<u32> = (0..PROBE_ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..PROBE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        SpeedProbe { next, at: 0 }
    }

    /// One probe run; returns the nanoseconds it took.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..PROBE_STEPS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        t.elapsed().as_nanos() as u64
    }
}

/// One interval of the measured phase.
#[derive(Clone, Debug)]
pub struct Window {
    pub ops: u64,
    pub wall_s: f64,
    /// CPU seconds this process used, all threads.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor gave away.
    pub steal_share: f64,
    /// Mean time of the probe runs made in this window.
    pub probe_ns: f64,
}

/// Reads the clocks at window boundaries and runs the probe in between.
pub struct Sampler {
    probe: SpeedProbe,
    at: Instant,
    cpu_s: f64,
    steal_ticks: u64,
    total_ticks: u64,
    probe_runs: u32,
    probe_ns: u64,
}

impl Sampler {
    pub fn start() -> Self {
        let mut sampler = Sampler {
            probe: SpeedProbe::new(),
            at: Instant::now(),
            cpu_s: 0.0,
            steal_ticks: 0,
            total_ticks: 0,
            probe_runs: 0,
            probe_ns: 0,
        };
        sampler.read_clocks();
        sampler
    }

    fn read_clocks(&mut self) {
        (self.steal_ticks, self.total_ticks) = procfs::system_ticks();
        self.cpu_s = procfs::cpu_s();
        self.at = Instant::now();
    }

    /// Times the reference kernel once, on the calling thread.
    pub fn probe(&mut self) {
        self.probe_ns += self.probe.run();
        self.probe_runs += 1;
    }

    /// Closes the window that began at the previous call (or at `start`).
    /// The probe's own time is taken out of the window's wall and CPU time.
    pub fn close(&mut self, ops: u64) -> Window {
        assert!(self.probe_runs > 0, "a window without a probe run cannot be scaled");
        let (at, cpu_s, steal, total) = (self.at, self.cpu_s, self.steal_ticks, self.total_ticks);
        self.read_clocks();
        let probe_s = self.probe_ns as f64 / 1e9;
        let window = Window {
            ops,
            wall_s: (self.at - at).as_secs_f64() - probe_s,
            cpu_s: (self.cpu_s - cpu_s - probe_s).max(0.0),
            steal_share: (self.steal_ticks - steal) as f64
                / (self.total_ticks - total).max(1) as f64,
            probe_ns: self.probe_ns as f64 / f64::from(self.probe_runs),
        };
        (self.probe_runs, self.probe_ns) = (0, 0);
        window
    }
}

/// The run's end-to-end numbers from its windows: for each, the median
/// over the windows of the window's value at reference host speed.
/// `reference_probe_ns` is what a probe run takes on the quiet host while
/// this workload runs beside it.
pub fn summarize(windows: &[Window], reference_probe_ns: f64) -> Vec<(&'static str, f64)> {
    let of = |f: &dyn Fn(&Window, f64) -> f64| {
        let values: Vec<f64> =
            windows.iter().map(|w| f(w, w.probe_ns / reference_probe_ns)).collect();
        median(&values)
    };
    vec![
        ("ops_per_s", of(&|w, slowdown| w.ops as f64 / w.wall_s * slowdown)),
        ("cpu_us_per_op", of(&|w, slowdown| w.cpu_s * 1e6 / w.ops.max(1) as f64 / slowdown)),
    ]
}

/// The windows as a JSON array of
/// `[ops, wall_s, cpu_s, steal_share, probe_us]` as measured (nothing
/// scaled), for the notes line.
pub fn windows_json(windows: &[Window]) -> String {
    let rows: Vec<String> = windows
        .iter()
        .map(|w| {
            format!(
                "[{}, {:.4}, {:.2}, {:.3}, {:.1}]",
                w.ops,
                w.wall_s,
                w.cpu_s,
                w.steal_share,
                w.probe_ns / 1e3
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_walks_one_cycle_through_the_whole_array() {
        let probe = SpeedProbe::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = probe.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, PROBE_ENTRIES);
    }

    #[test]
    fn windows_are_scaled_to_reference_speed_before_the_median() {
        let window = |ops: u64, slowdown: f64| Window {
            ops,
            wall_s: 1.0,
            cpu_s: 0.5,
            steal_share: 0.0,
            probe_ns: 3e6 * slowdown,
        };
        // The same program on a host at full, two-thirds and half speed.
        let got = summarize(&[window(1_000, 1.0), window(500, 2.0), window(667, 1.5)], 3e6);
        let value = |name: &str| got.iter().find(|(n, _)| *n == name).expect("metric").1;
        assert!((value("ops_per_s") - 1_000.0).abs() < 1.0);
        // A window's CPU time covers fewer operations on a slower host.
        assert!((value("cpu_us_per_op") - 500.0).abs() < 1.0);
    }

    #[test]
    fn sampler_takes_the_probe_out_of_the_window() {
        let mut sampler = Sampler::start();
        sampler.probe();
        sampler.probe();
        let w = sampler.close(10);
        assert!(w.probe_ns > 0.0 && w.wall_s >= 0.0 && w.wall_s < 0.5);
        sampler.probe();
        assert_eq!(sampler.close(5).ops, 5);
    }
}
