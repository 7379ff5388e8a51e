//! `repro` — regenerate every table and figure of the DCART paper.
//!
//! ```text
//! repro <exhibit> [--scale smoke|default|full] [--out DIR] [--jobs N]
//!                 [--sou-threads N] [--steal] [--batches N] [--seed S]
//!
//! exhibits:
//!   table1   Table I   — DCART configuration
//!   fig2     Fig. 2    — motivation: baseline inefficiencies (a–e)
//!   fig3     Fig. 3    — operation distribution & node skew
//!   overall  Figs. 7/8/9/11 — contentions, matches, time, energy
//!   fig10    Fig. 10   — throughput vs P99 latency curves
//!   fig12    Fig. 12   — sensitivity to concurrency & write ratio
//!   ablate             — design-choice ablations (not in the paper)
//!   chaos              — differential fault-injection suite (robustness)
//!   crash              — crash-point recovery matrix (durability)
//!   soak               — crash/recover soak under chaos faults (durability)
//!   all                — everything above, in order
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use dcart::ExecOpts;
use dcart_bench::{experiments, Scale};

const EXHIBITS: &str = "table1|fig2|fig3|overall|fig7|fig8|fig9|fig11|fig10|fig12|ablate|\
                        chaos|crash|soak|scans|indexes|fig6|skew|all";

fn print_usage() {
    eprintln!(
        "usage: repro <{EXHIBITS}> \
         [--scale smoke|default|full] [--out DIR] [--jobs N] [--sou-threads N] \
         [--steal] [--batches N] [--seed S]"
    );
}

/// One-line actionable failure: say what was wrong AND what would be right.
fn fail(msg: &str) -> ExitCode {
    eprintln!("repro: {msg}");
    print_usage();
    ExitCode::FAILURE
}

fn is_known_exhibit(name: &str) -> bool {
    matches!(
        name,
        "table1"
            | "fig2"
            | "fig2a"
            | "fig2b"
            | "fig2c"
            | "fig2d"
            | "fig2e"
            | "fig3"
            | "overall"
            | "fig7"
            | "fig8"
            | "fig9"
            | "fig11"
            | "fig10"
            | "fig12"
            | "fig12a"
            | "fig12b"
            | "ablate"
            | "ablations"
            | "chaos"
            | "crash"
            | "soak"
            | "scans"
            | "indexes"
            | "timeline"
            | "fig6"
            | "skew"
            | "all"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exhibit) = args.first().cloned() else {
        return fail("missing exhibit (pick one of the subcommands below)");
    };
    if matches!(exhibit.as_str(), "help" | "--help" | "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    if !is_known_exhibit(&exhibit) {
        return fail(&format!("unknown exhibit '{exhibit}'"));
    }
    let mut scale = Scale::default_scale();
    let mut out_dir = PathBuf::from("reports");
    let mut batches: u64 = 32;
    let mut seed_override: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut exec = ExecOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(name) = args.get(i + 1) else {
                    return fail("--scale needs a value: smoke, default, or full");
                };
                let Some(s) = Scale::from_name(name) else {
                    return fail(&format!("unknown scale '{name}' (want smoke, default, or full)"));
                };
                scale = s;
                i += 2;
            }
            "--out" => {
                let Some(dir) = args.get(i + 1) else {
                    return fail("--out needs a directory path");
                };
                out_dir = PathBuf::from(dir);
                i += 2;
            }
            "--jobs" => {
                let Some(n) = args.get(i + 1) else {
                    return fail("--jobs needs a positive integer");
                };
                let Some(n) = n.parse::<usize>().ok().filter(|&n| n > 0) else {
                    return fail(&format!("--jobs expects a positive integer, got '{n}'"));
                };
                jobs = Some(n);
                i += 2;
            }
            "--sou-threads" => {
                let Some(n) = args.get(i + 1) else {
                    return fail("--sou-threads needs a positive integer");
                };
                let Some(n) = n.parse::<usize>().ok().filter(|&n| n > 0) else {
                    return fail(&format!("--sou-threads expects a positive integer, got '{n}'"));
                };
                exec.threads = n;
                i += 2;
            }
            "--steal" => {
                // Work stealing moves shards between workers, never
                // results: reports are byte-identical with it on or off.
                exec.steal = true;
                i += 1;
            }
            "--batches" => {
                let Some(n) = args.get(i + 1) else {
                    return fail("--batches needs a positive integer (soak length)");
                };
                let Ok(n) = n.parse::<u64>() else {
                    return fail(&format!("--batches expects a positive integer, got '{n}'"));
                };
                if n == 0 {
                    return fail("--batches must be at least 1");
                }
                batches = n;
                i += 2;
            }
            "--seed" => {
                let Some(n) = args.get(i + 1) else {
                    return fail("--seed needs an integer");
                };
                let Ok(n) = n.parse::<u64>() else {
                    return fail(&format!("--seed expects an unsigned integer, got '{n}'"));
                };
                seed_override = Some(n);
                i += 2;
            }
            other => {
                return fail(&format!("unknown option '{other}'"));
            }
        }
    }
    if let Some(s) = seed_override {
        scale.seed = s;
    }
    if let Some(n) = jobs {
        scale.jobs = n;
    }
    scale.exec = exec;

    println!(
        "DCART reproduction | scale: {} keys, {} ops, {} in flight | {} worker(s) \
         | {} SOU thread(s) | reports: {}\n",
        scale.keys,
        scale.ops,
        scale.concurrency,
        scale.jobs,
        scale.exec.threads,
        out_dir.display()
    );

    let t0 = std::time::Instant::now();
    match exhibit.as_str() {
        "table1" => {
            experiments::table1::run(&out_dir);
        }
        "fig2" | "fig2a" | "fig2b" | "fig2c" | "fig2d" | "fig2e" => {
            experiments::fig2::run(&scale, &out_dir);
        }
        "fig3" => {
            experiments::fig3::run(&scale, &out_dir);
        }
        "overall" | "fig7" | "fig8" | "fig9" | "fig11" => {
            experiments::overall::run(&scale, &out_dir);
        }
        "fig10" => {
            experiments::fig10::run(&scale, &out_dir);
        }
        "fig12" | "fig12a" | "fig12b" => {
            experiments::fig12::run(&scale, &out_dir);
        }
        "ablate" | "ablations" => {
            experiments::ablate::run(&scale, &out_dir);
        }
        "chaos" => {
            experiments::chaos::run(&scale, &out_dir);
        }
        "crash" => {
            experiments::crash::run(&scale, &out_dir);
        }
        "soak" => {
            experiments::soak::run(&scale, &out_dir, batches, scale.seed);
        }
        "scans" => {
            experiments::scans::run(&scale, &out_dir);
        }
        "indexes" => {
            experiments::indexes::run(&scale, &out_dir);
        }
        "timeline" | "fig6" => {
            experiments::timeline::run(&scale, &out_dir);
        }
        "skew" => {
            experiments::skew::run(&scale, &out_dir);
        }
        "all" => {
            experiments::table1::run(&out_dir);
            experiments::fig2::run(&scale, &out_dir);
            experiments::fig3::run(&scale, &out_dir);
            experiments::overall::run(&scale, &out_dir);
            experiments::fig10::run(&scale, &out_dir);
            experiments::fig12::run(&scale, &out_dir);
            experiments::ablate::run(&scale, &out_dir);
            experiments::chaos::run(&scale, &out_dir);
            experiments::crash::run(&scale, &out_dir);
            experiments::soak::run(&scale, &out_dir, batches, scale.seed);
            experiments::scans::run(&scale, &out_dir);
            experiments::indexes::run(&scale, &out_dir);
            experiments::timeline::run(&scale, &out_dir);
            experiments::skew::run(&scale, &out_dir);
        }
        other => {
            return fail(&format!("unknown exhibit '{other}'"));
        }
    }
    println!(
        "done: {exhibit} in {:.2} s wall with {} worker(s)",
        t0.elapsed().as_secs_f64(),
        scale.jobs
    );
    ExitCode::SUCCESS
}
