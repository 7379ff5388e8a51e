//! `dcart-server` — the DCART online serving binary.
//!
//! ```text
//! dcart-server serve  --addr HOST:PORT [--data-dir DIR] [--sou-threads N]
//!                     [--steal] [--batch-size N] [--checkpoint-every N]
//!                     [--queue-capacity N]
//! dcart-server load   --addr HOST:PORT [--qps N] [--ops N] [--seed S]
//!                     [--insert-pct P] [--remove-pct P] [--scan-pct P]
//!                     [--budget-us N] [--acked-log FILE]
//! dcart-server verify-acked --addr HOST:PORT --log FILE
//! ```
//!
//! `--steal` makes the SOU pool's workers claim a batch's shards heaviest
//! first; like `--sou-threads`, it changes no answer. A durable server
//! checkpoints once its WAL segment has grown as large as the last
//! checkpoint file (1 MiB at least); `--checkpoint-every N` also caps the
//! batches between two checkpoints at N.
//!
//! `serve` runs until SIGINT or a `shutdown` wire request, then drains
//! gracefully (stop accepting, flush, checkpoint) and exits 0.
//! `load` drives a remote server with a seeded open-loop schedule and can
//! log acknowledged insert keys; `verify-acked` audits that log after a
//! crash+restart — it exits nonzero if any acknowledged write is missing,
//! and refuses a ledger line that is not a key. A flag the subcommand
//! does not take is an error, not ignored, and so is a value out of its
//! range.

mod client;
mod clock;
mod loadgen;

use std::cell::Cell;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dcart_engine::time::Clock;
use dcart_server::wire::{Request, RequestKind};
use dcart_server::{serve, signal, ServerConfig};

use client::{request_sync, write_acked_log};
use clock::WallClock;
use loadgen::LoadConfig;

fn print_usage() {
    eprintln!(
        "usage: dcart-server <serve|load|verify-acked> [options]\n\
         serve        --addr HOST:PORT [--data-dir DIR] [--sou-threads N] [--steal]\n\
         \x20            [--batch-size N] [--checkpoint-every N] [--queue-capacity N]\n\
         \x20            (--steal: SOU pool workers claim shards heaviest first)\n\
         \x20            (--batch-size: the most queued requests one batch takes)\n\
         \x20            (--checkpoint-every: at most N batches between checkpoints;\n\
         \x20             by default one follows once the WAL holds as many bytes\n\
         \x20             as the last checkpoint, 1 MiB at least)\n\
         load         --addr HOST:PORT [--qps N] [--ops N] [--seed S]\n\
         \x20            [--insert-pct P] [--remove-pct P] [--scan-pct P]\n\
         \x20            [--budget-us N] [--acked-log FILE]\n\
         verify-acked --addr HOST:PORT --log FILE"
    );
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("dcart-server: {msg}");
    print_usage();
    ExitCode::FAILURE
}

/// Tiny flag reader: `value_of` finds `--flag V`, `has` finds `--flag`,
/// and each marks what it found as known; [`Flags::reject_unknown`] then
/// refuses an argument no lookup asked for.
struct Flags {
    args: Vec<String>,
    known: Vec<Cell<bool>>,
}

impl Flags {
    fn parse_u64(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} wants an integer, got '{v}'")),
        }
    }

    /// A duration given in microseconds, in nanoseconds: one that does not
    /// fit is an error, not a wrapped value.
    fn parse_us_as_ns(&self, flag: &str, default: u64) -> Result<u64, String> {
        let us = self.parse_u64(flag, default)?;
        us.checked_mul(1_000).ok_or_else(|| {
            format!("{flag} expects at most {} microseconds, got '{us}'", u64::MAX / 1_000)
        })
    }

    /// A count that must be at least one: zero is an error, not a clamp.
    fn parse_positive(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} expects a positive integer, got '{v}'")),
        }
    }

    /// A share of the op mix: above 100 is an error, not a clamp.
    fn parse_pct(&self, flag: &str, default: u8) -> Result<u8, String> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|&p| p <= 100)
                .ok_or_else(|| format!("{flag} expects a percentage from 0 to 100, got '{v}'")),
        }
    }

    fn value_of(&self, flag: &str) -> Option<&str> {
        let i = self.find(flag)? + 1;
        let value = self.args.get(i)?;
        self.known[i].set(true);
        Some(value)
    }

    fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// Where `flag` is, marked known.
    fn find(&self, flag: &str) -> Option<usize> {
        let i = self.args.iter().position(|a| a == flag)?;
        self.known[i].set(true);
        Some(i)
    }

    /// Each subcommand takes only the flags it looks up: an argument none
    /// of its lookups found is a typo or a flag of another subcommand.
    fn reject_unknown(&self, cmd: &str) -> Result<(), String> {
        match self.known.iter().position(|k| !k.get()) {
            Some(i) => Err(format!("unknown flag '{}' for {cmd}", self.args[i])),
            None => Ok(()),
        }
    }
}

fn cmd_serve(flags: &Flags) -> ExitCode {
    let Some(addr) = flags.value_of("--addr") else {
        return fail("serve needs --addr HOST:PORT");
    };
    let mut config = ServerConfig::default();
    match (|| -> Result<(), String> {
        config.threads = flags.parse_positive("--sou-threads", 1)? as usize;
        config.steal = flags.has("--steal");
        config.batch_size = flags.parse_positive("--batch-size", 64)? as usize;
        config.checkpoint_every = flags.parse_positive("--checkpoint-every", u64::MAX)?;
        config.admission.queue_capacity = flags.parse_positive("--queue-capacity", 1_024)?;
        config.data_dir = flags.value_of("--data-dir").map(PathBuf::from);
        flags.reject_unknown("serve")
    })() {
        Ok(()) => {}
        Err(e) => return fail(&e),
    }
    signal::install_sigint_handler();
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let handle = match serve(config, addr, clock) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dcart-server: serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("dcart-server: listening on {}", handle.local_addr());
    match handle.join() {
        Ok(report) => {
            println!(
                "dcart-server: drained cleanly (answer digest {:#018x}, tree digest {:#018x})",
                report.answer_digest, report.tree_digest
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dcart-server: core failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_load(flags: &Flags) -> ExitCode {
    let Some(addr) = flags.value_of("--addr") else {
        return fail("load needs --addr HOST:PORT");
    };
    let acked_log = flags.value_of("--acked-log");
    let cfg = match (|| -> Result<LoadConfig, String> {
        let mut cfg = LoadConfig {
            seed: flags.parse_u64("--seed", 42)?,
            qps: flags.parse_positive("--qps", 20_000)?,
            ops: flags.parse_u64("--ops", 10_000)?,
            budget_ns: flags.parse_us_as_ns("--budget-us", 0)?,
            ..LoadConfig::default()
        };
        cfg.insert_pct = flags.parse_pct("--insert-pct", 40)?;
        cfg.remove_pct = flags.parse_pct("--remove-pct", 5)?;
        cfg.scan_pct = flags.parse_pct("--scan-pct", 5)?;
        let (insert, remove, scan) = (cfg.insert_pct, cfg.remove_pct, cfg.scan_pct);
        let writes_and_scans = u16::from(insert) + u16::from(remove) + u16::from(scan);
        if writes_and_scans > 100 {
            return Err(format!(
                "--insert-pct {insert} + --remove-pct {remove} + --scan-pct {scan} \
                 = {writes_and_scans}, more than 100"
            ));
        }
        flags.reject_unknown("load").map(|()| cfg)
    })() {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let (summary, acked_keys) = match loadgen::run_load(addr, &cfg, clock, Duration::from_secs(5)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dcart-server: load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(log) = acked_log {
        if let Err(e) = write_acked_log(std::path::Path::new(log), &acked_keys) {
            eprintln!("dcart-server: writing acked log: {e}");
            return ExitCode::FAILURE;
        }
    }
    match serde_json::to_string_pretty(&summary) {
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("dcart-server: summary serialize: {e}"),
    }
    // Every request offered is counted exactly once, whatever became of
    // it: a server killed mid-load leaves requests unanswered, not
    // uncounted. Exit reflects only that and local failures.
    let (offered, counted) = (summary.offered, summary.counted());
    if counted != offered {
        eprintln!(
            "dcart-server: load's account does not balance: {offered} offered, {counted} counted"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_verify_acked(flags: &Flags) -> ExitCode {
    let (Some(addr), Some(log)) = (flags.value_of("--addr"), flags.value_of("--log")) else {
        return fail("verify-acked needs --addr HOST:PORT and --log FILE");
    };
    if let Err(e) = flags.reject_unknown("verify-acked") {
        return fail(&e);
    }
    let text = match std::fs::read_to_string(log) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dcart-server: reading {log}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let keys = match parse_ledger(&text) {
        Ok(keys) => keys,
        Err(e) => {
            eprintln!("dcart-server: {log}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dcart-server: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut missing = 0u64;
    for (i, &key) in keys.iter().enumerate() {
        let req = Request {
            req_id: i as u64 + 1,
            kind: RequestKind::Get,
            budget_ns: 10_000_000_000,
            key,
            value: 0,
        };
        match request_sync(&mut stream, &req) {
            Some(resp) if resp.value.is_some() => {}
            _ => {
                missing += 1;
                eprintln!("dcart-server: acked key {key} missing after recovery");
            }
        }
    }
    println!("dcart-server: verified {} acked writes, {missing} missing", keys.len());
    if missing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One acked key per line, blank lines skipped. Any other line is damage,
/// and an audit that skipped it would check fewer keys and still pass.
fn parse_ledger(text: &str) -> Result<Vec<u64>, String> {
    let mut keys = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.parse() {
            Ok(key) => keys.push(key),
            Err(_) => return Err(format!("line {} is not a key: '{line}'", i + 1)),
        }
    }
    Ok(keys)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return fail("missing subcommand");
    };
    let args = args[1..].to_vec();
    let flags = Flags { known: args.iter().map(|_| Cell::new(false)).collect(), args };
    match cmd.as_str() {
        "serve" => cmd_serve(&flags),
        "load" => cmd_load(&flags),
        "verify-acked" => cmd_verify_acked(&flags),
        "help" | "--help" | "-h" => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => fail(&format!("unknown subcommand '{other}'")),
    }
}
