//! The deterministic load generator: a seeded arrival schedule
//! (`dcart_workloads::Arrivals`) paced against the wall clock, driving a
//! seeded operation mix over one pipelined connection.
//!
//! Determinism contract: the *content* of the load — arrival offsets,
//! op kinds, keys, values — is a pure function of `(seed, config)`. Only
//! the pacing (how offsets map onto real time) touches the clock, so the
//! same seed offers the identical operation stream on every run.

use std::sync::Arc;
use std::time::Duration;

use dcart_engine::time::Clock;
use dcart_server::wire::RequestKind;
use dcart_workloads::Arrivals;
use serde::Serialize;

use crate::client::{percentile_us, Accum, Client};

/// Load shape: everything the generator needs, all seeded.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    pub seed: u64,
    pub qps: u64,
    pub ops: u64,
    /// Percentages of the op mix; the remainder are gets.
    pub insert_pct: u8,
    pub remove_pct: u8,
    pub scan_pct: u8,
    /// Key space: `keys` distinct keys, each the `splitmix64` image of a
    /// rank drawn uniformly from `[0, keys)`, so they spread over every
    /// leading byte (and every combining bucket) however few there are.
    pub keys: u64,
    /// Per-request deadline budget (0 = server default).
    pub budget_ns: u64,
    /// Items per scan request.
    pub scan_limit: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 42,
            qps: 20_000,
            ops: 10_000,
            insert_pct: 40,
            remove_pct: 5,
            scan_pct: 5,
            keys: 1 << 16,
            budget_ns: 0,
            scan_limit: 16,
        }
    }
}

/// What one load run produced, printed by the `load` subcommand.
#[derive(Clone, Debug, Default, Serialize)]
pub struct LoadSummary {
    pub offered: u64,
    pub acked: u64,
    pub acked_writes: u64,
    pub rejected_overloaded: u64,
    pub rejected_deadline: u64,
    pub rejected_shed_scan: u64,
    pub rejected_shed_read: u64,
    pub rejected_draining: u64,
    pub errors: u64,
    pub unanswered: u64,
    pub send_failures: u64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
}

impl LoadSummary {
    pub fn from_accum(acc: &Accum, offered: u64, unanswered: usize, send_failures: u64) -> Self {
        let mean_us = if acc.latencies_ns.is_empty() {
            0.0
        } else {
            acc.latencies_ns.iter().sum::<u64>() as f64 / acc.latencies_ns.len() as f64 / 1_000.0
        };
        LoadSummary {
            offered,
            acked: acc.acked,
            acked_writes: acc.acked_writes,
            rejected_overloaded: acc.rejected[0],
            rejected_deadline: acc.rejected[1],
            rejected_shed_scan: acc.rejected[2],
            rejected_shed_read: acc.rejected[3],
            rejected_draining: acc.rejected[4],
            errors: acc.errors,
            unanswered: unanswered as u64,
            send_failures,
            p50_us: percentile_us(&acc.latencies_ns, 50.0),
            p95_us: percentile_us(&acc.latencies_ns, 95.0),
            p99_us: percentile_us(&acc.latencies_ns, 99.0),
            mean_us,
        }
    }

    /// Every outcome the summary counts: answered (acknowledged, rejected
    /// for any reason, or failed), never answered, or never sent. Equal to
    /// `offered` when each request is counted exactly once.
    pub fn counted(&self) -> u64 {
        self.acked
            + self.rejected_overloaded
            + self.rejected_deadline
            + self.rejected_shed_scan
            + self.rejected_shed_read
            + self.rejected_draining
            + self.errors
            + self.unanswered
            + self.send_failures
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded op stream: `(kind, key, value)` for op `i` is a pure
/// function of the config.
fn op_at(cfg: &LoadConfig, i: u64) -> (RequestKind, u64, u64) {
    let mix = splitmix64(cfg.seed ^ 0x006f_706d_6978 ^ i) % 100;
    let key = splitmix64(splitmix64(cfg.seed ^ 0x006b_6579 ^ i) % cfg.keys.max(1));
    let insert_hi = cfg.insert_pct as u64;
    let remove_hi = insert_hi + cfg.remove_pct as u64;
    let scan_hi = remove_hi + cfg.scan_pct as u64;
    if mix < insert_hi {
        (RequestKind::Insert, key, splitmix64(key ^ i))
    } else if mix < remove_hi {
        (RequestKind::Remove, key, 0)
    } else if mix < scan_hi {
        (RequestKind::Scan, key, cfg.scan_limit)
    } else {
        (RequestKind::Get, key, 0)
    }
}

/// Runs the paced load against `addr`. Open-loop: a request is sent at
/// its scheduled offset whether or not earlier ones have been answered,
/// so server-side queueing shows up as latency, not generator back-off.
pub fn run_load(
    addr: &str,
    cfg: &LoadConfig,
    clock: Arc<dyn Clock>,
    grace: Duration,
) -> std::io::Result<(LoadSummary, Vec<u64>)> {
    let mut client = Client::connect(addr, Arc::clone(&clock))?;
    let schedule = Arrivals::new(cfg.seed, cfg.qps);
    let start = clock.now_ns();
    let mut send_failures = 0u64;
    for (i, offset) in schedule.take(cfg.ops as usize).enumerate() {
        let due = start + offset;
        let now = clock.now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let (kind, key, value) = op_at(cfg, i as u64);
        if !client.send(kind, key, value, cfg.budget_ns) {
            send_failures += 1;
        }
    }
    let (accum, unanswered) = client.finish(grace);
    let summary = LoadSummary::from_accum(&accum, cfg.ops, unanswered, send_failures);
    Ok((summary, accum.acked_insert_keys))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default load's first 1 000 keys land in all 16 of the default
    /// config's combining buckets, which split on the key's first byte.
    #[test]
    fn default_keys_cover_every_combining_bucket() {
        let cfg = LoadConfig::default();
        let mut buckets = [false; 16];
        for i in 0..1_000 {
            buckets[((op_at(&cfg, i).1 >> 56) % 16) as usize] = true;
        }
        assert_eq!(buckets, [true; 16]);
    }

    /// Every outcome `from_accum` carries over is counted once: 50 acked
    /// (20 of them writes, a share and not an outcome), 15 rejected over
    /// the five reasons, 6 errors, 7 unanswered, 8 send failures.
    #[test]
    fn from_accum_counts_every_offered_request_exactly_once() {
        let acc = Accum {
            acked: 50,
            acked_writes: 20,
            rejected: [1, 2, 3, 4, 5],
            errors: 6,
            latencies_ns: vec![1_000; 50],
            acked_insert_keys: Vec::new(),
        };
        assert_eq!(LoadSummary::from_accum(&acc, 86, 7, 8).counted(), 86);
        for offered in [85, 87] {
            let summary = LoadSummary::from_accum(&acc, offered, 7, 8);
            assert_ne!(summary.counted(), summary.offered, "one counted twice, or not at all");
        }
    }
}
