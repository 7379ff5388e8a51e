//! `repro` — regenerate every table and figure of the DCART paper.
//!
//! ```text
//! repro <exhibit> [--scale smoke|default|full] [--out DIR] [--jobs N]
//!                 [--sou-threads N] [--steal] [--batches N] [--seed S]
//!
//! exhibits (aliases after the slash):
//!   table1               Table I   — DCART configuration
//!   fig2 / fig2a..fig2e  Fig. 2    — motivation: baseline inefficiencies (a–e)
//!   fig3                 Fig. 3    — operation distribution & node skew
//!   overall / fig7 fig8 fig9 fig11
//!                        Figs. 7/8/9/11 — contentions, matches, time, energy
//!   fig10                Fig. 10   — throughput vs P99 latency curves
//!   fig12 / fig12a fig12b
//!                        Fig. 12   — sensitivity to concurrency & write ratio
//!   ablate / ablations   design-choice ablations (not in the paper)
//!   chaos                differential fault-injection suite (robustness)
//!   crash                crash-point recovery matrix (durability)
//!   soak                 crash/recover soak under chaos faults (durability)
//!   scans                range-scan extension (not in the paper)
//!   indexes              §V related work, measured: ART vs B+-tree vs hash
//!   timeline / fig6      Fig. 6    — the PCU/SOU batch-overlap timeline
//!   skew                 skew sensitivity (extension)
//!   all                  everything above, in order
//!
//! --sou-threads N        SOU pool worker threads per executor run
//! --steal                the SOU pool's workers claim shards heaviest first
//! ```
//!
//! Neither executor flag changes a report byte.
//!
//! One table, `EXHIBITS`, drives the usage line, the name check and the
//! dispatch, so the three cannot drift apart.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dcart::ExecOpts;
use dcart_bench::{experiments, Scale};

/// Runs one exhibit: the scale, the report directory and the soak length.
type Runner = fn(&Scale, &Path, u64);

/// Every exhibit, in the order `all` runs them: the names it answers to
/// (its own first, then aliases) and its runner.
const EXHIBITS: [(&[&str], Runner); 14] = [
    (&["table1"], |_, out, _| {
        experiments::table1::run(out);
    }),
    (&["fig2", "fig2a", "fig2b", "fig2c", "fig2d", "fig2e"], |s, out, _| {
        experiments::fig2::run(s, out);
    }),
    (&["fig3"], |s, out, _| {
        experiments::fig3::run(s, out);
    }),
    (&["overall", "fig7", "fig8", "fig9", "fig11"], |s, out, _| {
        experiments::overall::run(s, out);
    }),
    (&["fig10"], |s, out, _| {
        experiments::fig10::run(s, out);
    }),
    (&["fig12", "fig12a", "fig12b"], |s, out, _| {
        experiments::fig12::run(s, out);
    }),
    (&["ablate", "ablations"], |s, out, _| {
        experiments::ablate::run(s, out);
    }),
    (&["chaos"], |s, out, _| {
        experiments::chaos::run(s, out);
    }),
    (&["crash"], |s, out, _| {
        experiments::crash::run(s, out);
    }),
    (&["soak"], |s, out, batches| {
        experiments::soak::run(s, out, batches, s.seed);
    }),
    (&["scans"], |s, out, _| {
        experiments::scans::run(s, out);
    }),
    (&["indexes"], |s, out, _| {
        experiments::indexes::run(s, out);
    }),
    (&["timeline", "fig6"], |s, out, _| {
        experiments::timeline::run(s, out);
    }),
    (&["skew"], |s, out, _| {
        experiments::skew::run(s, out);
    }),
];

/// The runners `name` selects: one exhibit, every exhibit for `all`, or
/// none for an unknown name.
fn runners(name: &str) -> Vec<Runner> {
    EXHIBITS
        .iter()
        .filter(|(names, _)| name == "all" || names.contains(&name))
        .map(|&(_, run)| run)
        .collect()
}

fn print_usage() {
    let names: Vec<&str> =
        EXHIBITS.iter().flat_map(|(names, _)| names.iter().copied()).chain(["all"]).collect();
    eprintln!(
        "usage: repro <{}> \
         [--scale smoke|default|full] [--out DIR] [--jobs N] [--sou-threads N] \
         [--steal] [--batches N] [--seed S]\n\
         \x20 --steal: SOU pool workers claim shards heaviest first (no report changes)",
        names.join("|")
    );
}

/// One-line actionable failure: say what was wrong AND what would be right.
fn fail(msg: &str) -> ExitCode {
    eprintln!("repro: {msg}");
    print_usage();
    ExitCode::FAILURE
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
    let selected = runners(&exhibit);
    if selected.is_empty() {
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
                // Heaviest-first claiming moves shards between workers,
                // never results: reports are byte-identical with it on or off.
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
    for run in selected {
        run(&scale, &out_dir, batches);
    }
    println!(
        "done: {exhibit} in {:.2} s wall with {} worker(s)",
        t0.elapsed().as_secs_f64(),
        scale.jobs
    );
    ExitCode::SUCCESS
}
