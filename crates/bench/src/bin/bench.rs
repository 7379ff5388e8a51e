//! `bench` — the exact-counter harness.
//!
//! Runs the functional executors (CTT, the baseline trace executor, the
//! B+-tree, and the hash index) on the tier-1 workloads at the smoke
//! scale and writes their integer counters to `BENCH_ctt.json`.
//!
//! ```text
//! bench [--out DIR] [--check-baseline FILE]
//! ```
//!
//! Writes into the current directory by default. With
//! `--check-baseline`, the fresh report's JSON is compared with a
//! committed baseline byte for byte, and the run fails naming every line
//! that differs.

use std::path::PathBuf;
use std::process::ExitCode;

use dcart_bench::{perf, Scale};

fn usage() -> ExitCode {
    eprintln!("usage: bench [--out DIR] [--check-baseline FILE]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                let Some(dir) = args.get(i + 1) else { return usage() };
                out_dir = PathBuf::from(dir);
                i += 2;
            }
            "--check-baseline" => {
                let Some(path) = args.get(i + 1) else { return usage() };
                baseline = Some(PathBuf::from(path));
                i += 2;
            }
            other => {
                eprintln!("unknown option: {other}");
                return usage();
            }
        }
    }

    let report = perf::run(&Scale::smoke(), &out_dir);
    if let Some(path) = baseline {
        match perf::check_baseline(&report, &path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("baseline check failed:\n{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
