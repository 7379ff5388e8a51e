//! Shell-out tests for the `dcart-server` binary: its flag contract (a
//! bad invocation exits 1 with a one-line message naming the flag and the
//! value, before anything binds a socket or touches a data directory),
//! and `load`'s summary against the server's own counters.

use std::process::{Command, Output};
use std::sync::Arc;

use dcart_engine::time::TestClock;
use dcart_server::{AdmissionConfig, ServerConfig};

fn dcart_server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcart-server"))
        .args(args)
        .output()
        .expect("spawn dcart-server")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exits 1, and the diagnostic before the usage text is one line holding
/// `needle`.
fn assert_refused(args: &[&str], needle: &str) {
    let out = dcart_server(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail with exit code 1");
    let err = stderr_of(&out);
    assert!(err.contains(needle), "{args:?}: expected '{needle}' in: {err}");
    assert_eq!(
        err.lines().take_while(|l| !l.starts_with("usage:")).count(),
        1,
        "{args:?}: the diagnostic itself is one line: {err}"
    );
}

#[test]
fn serve_rejects_a_zero_count_instead_of_clamping_it() {
    for flag in ["--batch-size", "--checkpoint-every", "--queue-capacity", "--sou-threads"] {
        assert_refused(
            &["serve", "--addr", "127.0.0.1:0", flag, "0"],
            &format!("{flag} expects a positive integer, got '0'"),
        );
    }
}

#[test]
fn serve_rejects_a_count_that_is_not_an_integer() {
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--batch-size", "many"],
        "--batch-size expects a positive integer, got 'many'",
    );
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--sou-threads", "-1"],
        "--sou-threads expects a positive integer, got '-1'",
    );
}

#[test]
fn a_duration_too_long_for_nanoseconds_is_refused_not_wrapped() {
    // u64::MAX / 1000 + 1 microseconds: the first that overflows.
    let over = "18446744073709552";
    assert_refused(
        &["load", "--addr", "127.0.0.1:0", "--budget-us", over],
        "--budget-us expects at most 18446744073709551 microseconds",
    );
}

#[test]
fn serve_without_an_address_is_an_error() {
    assert_refused(&["serve", "--batch-size", "8"], "serve needs --addr HOST:PORT");
}

#[test]
fn every_subcommand_refuses_a_flag_it_does_not_take() {
    // A typo must not run with the default, `--no-sync` names no flag
    // (commits are always synced), and neither does `--linger-us` (a
    // batch is what queued while the last one ran; nothing waits).
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--sou-thread", "2"],
        "unknown flag '--sou-thread' for serve",
    );
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--no-sync"],
        "unknown flag '--no-sync' for serve",
    );
    assert_refused(
        &["serve", "--addr", "127.0.0.1:0", "--linger-us", "200"],
        "unknown flag '--linger-us' for serve",
    );
    assert_refused(
        &["load", "--addr", "127.0.0.1:0", "--steal"],
        "unknown flag '--steal' for load",
    );
}

#[test]
fn the_bench_subcommand_is_gone() {
    assert_refused(&["bench"], "unknown subcommand 'bench'");
}

#[test]
fn load_rejects_a_zero_rate_and_an_impossible_mix() {
    assert_refused(
        &["load", "--addr", "127.0.0.1:0", "--qps", "0"],
        "--qps expects a positive integer, got '0'",
    );
    for flag in ["--insert-pct", "--remove-pct", "--scan-pct"] {
        assert_refused(
            &["load", "--addr", "127.0.0.1:0", flag, "150"],
            &format!("{flag} expects a percentage from 0 to 100, got '150'"),
        );
    }
    // With the default --remove-pct 5 this asks for 115 % of the ops.
    assert_refused(
        &["load", "--addr", "127.0.0.1:0", "--insert-pct", "90", "--scan-pct", "20"],
        "--insert-pct 90 + --remove-pct 5 + --scan-pct 20 = 115, more than 100",
    );
}

#[test]
fn verify_acked_refuses_a_damaged_ledger_before_connecting() {
    let ledger = std::env::temp_dir().join(format!("dcart_cli_ledger_{}", std::process::id()));
    std::fs::write(&ledger, "17\n\n42\n4x2\n99\n").expect("write ledger");
    // Port 1 has no server: a refusal that names the line came first.
    let log = ledger.to_str().expect("utf-8 temp path");
    let out = dcart_server(&["verify-acked", "--addr", "127.0.0.1:1", "--log", log]);
    let _ = std::fs::remove_file(&ledger);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(err.contains("line 4 is not a key: '4x2'"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

/// The accounting identity across the wire, with rejections: a `load`
/// that overruns a one-slot queue counts every outcome exactly as the
/// server does. The clock stands still, so no deadline passes and every
/// refusal is the queue's.
#[test]
fn load_counts_every_outcome_as_the_server_does_under_rejections() {
    let config = ServerConfig {
        admission: AdmissionConfig { queue_capacity: 1, ..AdmissionConfig::default() },
        ..ServerConfig::default()
    };
    let handle =
        dcart_server::serve(config, "127.0.0.1:0", Arc::new(TestClock::new())).expect("serve");
    let addr = handle.local_addr().to_string();
    let mut args = vec!["load", "--addr", &addr];
    args.extend(["--qps", "50000", "--ops", "5000", "--remove-pct", "0"]);
    let out = dcart_server(&args);
    assert_eq!(out.status.code(), Some(0), "load: {}", stderr_of(&out));
    // The summary is one JSON object, a field to a line.
    let summary = String::from_utf8_lossy(&out.stdout).into_owned();
    let count = |field: &str| -> u64 {
        let key = format!("\"{field}\": ");
        let line = summary.lines().find_map(|l| l.trim().strip_prefix(key.as_str()));
        let value = line.unwrap_or_else(|| panic!("no {field} in: {summary}"));
        value.trim_end_matches(',').parse().unwrap_or_else(|_| panic!("{field}: {value}"))
    };

    let stats = handle.shared().stats();
    let (adm, core) = (stats.admission, stats.core);
    assert_eq!(count("rejected_overloaded"), adm.overloaded, "{summary}");
    assert_eq!(count("rejected_deadline"), adm.deadline_exceeded + core.expired_in_queue);
    assert_eq!(count("rejected_shed_scan"), adm.shed_scans, "{summary}");
    assert_eq!(count("rejected_shed_read"), adm.shed_reads, "{summary}");
    assert_eq!(count("rejected_draining"), adm.draining, "{summary}");
    assert_eq!(count("acked"), core.ops, "{summary}");
    assert_eq!(adm.accepted, core.ops + core.expired_in_queue, "{adm:?} {core:?}");
    assert!(adm.overloaded > 0, "a one-slot queue at 50 000/s must refuse writes: {summary}");
    handle.shutdown_and_join().expect("drain");
}
