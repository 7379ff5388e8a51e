//! `bench` — the wall-clock perf harness.
//!
//! Times the functional executors (CTT, the baseline trace executor, the
//! B+-tree, and the hash index) on the tier-1 workloads and writes
//! `BENCH_ctt.json`, the perf baseline future PRs are compared against.
//!
//! ```text
//! bench [--scale smoke|default|full] [--out DIR] [--jobs N]
//!       [--sou-threads N] [--steal] [--check-baseline FILE]
//! ```
//!
//! Defaults to the smoke scale (the harness measures the *host*, not the
//! simulated platforms, so a few seconds of signal suffices) and writes
//! into the current directory. With `--check-baseline`, the freshly
//! measured report is compared against a committed baseline and the run
//! fails unless every cell's integer counters equal the baseline's.

use std::path::PathBuf;
use std::process::ExitCode;

use dcart::ExecOpts;
use dcart_bench::{perf, Scale};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench [--scale smoke|default|full] [--out DIR] [--jobs N] \
         [--sou-threads N] [--steal] [--check-baseline FILE]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::smoke();
    let mut out_dir = PathBuf::from(".");
    let mut baseline: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut exec = ExecOpts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(name) = args.get(i + 1) else { return usage() };
                let Some(s) = Scale::from_name(name) else {
                    eprintln!("unknown scale: {name}");
                    return usage();
                };
                scale = s;
                i += 2;
            }
            "--out" => {
                let Some(dir) = args.get(i + 1) else { return usage() };
                out_dir = PathBuf::from(dir);
                i += 2;
            }
            "--jobs" => {
                let Some(n) = args.get(i + 1) else { return usage() };
                let Some(n) = n.parse::<usize>().ok().filter(|&n| n > 0) else {
                    eprintln!("--jobs expects a positive integer, got {n}");
                    return usage();
                };
                jobs = Some(n);
                i += 2;
            }
            "--sou-threads" => {
                let Some(n) = args.get(i + 1) else { return usage() };
                let Some(n) = n.parse::<usize>().ok().filter(|&n| n > 0) else {
                    eprintln!("--sou-threads expects a positive integer, got {n}");
                    return usage();
                };
                exec.threads = n;
                i += 2;
            }
            "--steal" => {
                exec.steal = true;
                i += 1;
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

    if let Some(n) = jobs {
        scale.jobs = n;
    }
    scale.exec = exec;

    println!(
        "perf harness | {} keys, {} ops per cell | {} worker(s) | {} SOU thread(s)\n",
        scale.keys, scale.ops, scale.jobs, scale.exec.threads
    );
    let t0 = std::time::Instant::now();
    let report = perf::run(&scale, &out_dir);
    println!("done in {:.2} s wall", t0.elapsed().as_secs_f64());
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
