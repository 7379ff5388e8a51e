//! The repo's benchmark. One invocation runs one workload and prints, as
//! its last line, whether the outputs were correct and every metric by name
//! with its unit:
//!
//! ```text
//! dcart-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! dcart-benchmark all       [--seed <n>] [--seconds <n>] [--smoke]
//! dcart-benchmark calibrate [--sets <n>] [--runs <n>] [--seed <n>] [--seconds <n>] [--smoke]
//! dcart-benchmark manifest
//! ```
//!
//! `--trace 0` is the end-to-end run (tracing off); `--trace 1` the traced
//! run that yields the per-layer metrics and `out/<workload>.trace.json`.
//! `--smoke` divides every size by 50. See `README.md` beside this crate.

mod batch;
mod calibrate;
mod metrics;
mod procfs;
mod serve;
mod stats;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Outcome, RUN_SECONDS, WORKLOADS};
use trace::Tracer;

/// By how much `--smoke` divides key counts and stream lengths.
const SMOKE_SCALE: usize = 50;

/// Where the traced run and the durable server write; inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 10,
    };
    let mut first = true;
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("{flag}: {v}?"));
        match arg.as_str() {
            "run" | "all" | "calibrate" | "manifest" if first => args.command = arg,
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--sets" => args.sets = number("--sets", value("--sets")?)? as usize,
            "--runs" => args.runs = number("--runs", value("--runs")?)? as usize,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
        first = false;
    }
    Ok(args)
}

/// Runs one workload in this process and prints its notes and result.
fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let scale = if args.smoke { SMOKE_SCALE } else { 1 };
    let started = Instant::now();
    let mut tr = Tracer::new(args.trace);
    let mut outcome: Outcome = if let Some(spec) = batch::spec(name, scale) {
        match args.trace {
            false => batch::run_end_to_end(&spec, args.seed, args.seconds),
            true => tr.span("run", 0, |tr| batch::run_traced(&spec, args.seed, tr)),
        }
    } else if let Some(spec) = serve::spec(name, scale) {
        match args.trace {
            false => serve::run_end_to_end(&spec, args.seed, args.seconds),
            true => tr.span("run", 0, |tr| serve::run_traced(&spec, args.seed, args.seconds, tr)),
        }
    } else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload {name}; one of {}", known.join(", ")));
    };

    let names = if args.trace {
        let header = [
            ("workload", format!("\"{name}\"")),
            ("seed", args.seed.to_string()),
            ("smoke", args.smoke.to_string()),
        ];
        let path = out_dir().join(format!("{name}.trace.json"));
        tr.write_json(&path, &header).map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.metrics.push(("trace.spans", tr.len() as f64));
        outcome.metrics.push(("trace.wall_s", started.elapsed().as_secs_f64()));
        metrics::per_layer_names()
    } else {
        metrics::end_to_end_names()
    };
    let notes: Vec<String> = [("workload", format!("\"{name}\"")), ("seed", args.seed.to_string())]
        .into_iter()
        .chain(outcome.notes.iter().cloned())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{{}}}", notes.join(", "));
    println!("{}", metrics::result_json(&outcome, &names));
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dcart-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        "all" => calibrate::run_all(&args),
        "calibrate" => calibrate::calibrate(&args),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dcart-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
