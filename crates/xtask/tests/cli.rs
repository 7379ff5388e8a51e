//! The `xtask` binary's command line: what it refuses, and that `--out`
//! always leaves this run's report behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask")).args(args).output().expect("xtask runs")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn lint_is_an_unknown_command() {
    let out = xtask(&["lint"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command `lint`") && stderr.contains("usage:"), "{stderr}");
}

#[test]
fn an_unknown_flag_is_refused_not_taken_as_the_root() {
    let out = xtask(&["analyze", "--fromat", "sarif"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--fromat`") && stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("cannot read workspace"), "{stderr}");
}

#[test]
fn a_clean_text_run_replaces_an_earlier_report() {
    let report = std::env::temp_dir().join(format!("xtask-cli-report-{}.txt", std::process::id()));
    std::fs::write(&report, "error[D1]: a finding from an earlier run\n").expect("report writable");
    let root = workspace_root();
    let out = xtask(&[
        "analyze",
        "--out",
        report.to_str().expect("utf-8 temp path"),
        root.to_str().expect("utf-8 workspace path"),
    ]);
    let written = std::fs::read_to_string(&report).expect("report readable");
    let _ = std::fs::remove_file(&report);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(written, "", "a clean run writes an empty text report");
}
