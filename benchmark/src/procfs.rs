//! Process CPU time and peak memory, read from `/proc/self`.

/// Kernel clock ticks per second in `/proc/self/stat`. Linux fixes the
/// user-visible value (`USER_HZ`) at 100 on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set in MB (10^6 bytes) from the text of
/// `/proc/<pid>/status` (`VmHWM`, reported in kB = 1024 bytes).
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 * 1024.0 / 1e6)
}

/// `(steal, total)` clock ticks of all CPUs from the text of `/proc/stat`:
/// the aggregate `cpu` line holds user, nice, system, idle, iowait, irq,
/// softirq and steal (guest time is already inside user).
pub fn parse_system_ticks(stat: &str) -> Option<(u64, u64)> {
    let mut fields = stat.lines().next()?.strip_prefix("cpu ")?.split_ascii_whitespace();
    let ticks: Vec<u64> = fields.by_ref().take(8).map_while(|f| f.parse().ok()).collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// `(steal, total)` clock ticks the machine's CPUs have counted so far.
pub fn system_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    parse_system_ticks(&stat).expect("/proc/stat starts with the aggregate cpu line")
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_s(&stat).expect("/proc/self/stat holds utime and stime")
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_hwm_mb(&status).expect("/proc/self/status holds VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat =
            "4242 (a b) c) R 1 4242 1 0 -1 4194304 84 0 0 0 1234 66 0 0 20 0 3 0 78 2568192 \
                    328 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_s("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn status_hwm_is_converted_from_kib() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    1000 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(1.024));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn system_ticks_sum_the_eight_states_and_pick_out_steal() {
        let stat = "cpu  100 1 20 3000 40 0 5 66 7 0\ncpu0 50 0 10 1500 20 0 2 33 3 0\n";
        assert_eq!(parse_system_ticks(stat), Some((66, 3232)));
        assert_eq!(parse_system_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_system_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let a = cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_s() >= a);
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = system_ticks();
        assert!(total > steal);
    }
}
