//! Runs of the whole set in child processes: `all` (one end-to-end and one
//! traced run of each workload) and `calibrate` (how far apart two sets of
//! runs of the same code land, held against the declared bounds the way
//! the driver holds them).

use std::process::Command;

use crate::metrics::{end_to_end_names, per_layer_names, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::Args;

/// What a child run printed.
struct RunOutput {
    correct: bool,
    digest: String,
    result_line: String,
}

/// The number after `"<key>": ` (or after `"<key>": {"value": `) in `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn string_after(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(rest[..rest.find('"')?].to_string())
}

/// One workload run in a fresh process, so that set-up time and peak
/// memory are that run's alone.
fn child_run(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result_line = lines.next().unwrap_or_default().to_string();
    let notes = lines.next().unwrap_or_default();
    if !result_line.starts_with("{\"correct\": ") {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload} seed {seed}: no result ({}) {stderr}", out.status));
    }
    Ok(RunOutput {
        correct: out.status.success() && result_line.starts_with("{\"correct\": true"),
        digest: string_after(notes, "answer_digest").unwrap_or_default(),
        result_line,
    })
}

/// `all`: each workload once end to end and once traced, as a table.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for (trace, names) in [(false, end_to_end_names()), (true, per_layer_names())] {
            let out = child_run(args, workload, args.seed, trace)?;
            ok &= out.correct;
            println!(
                "\n{workload} seed {} {} correct={} attempted={} failed={} digest={}",
                args.seed,
                if trace { "traced" } else { "end-to-end" },
                out.correct,
                number_after(&out.result_line, "attempted").unwrap_or(0.0),
                number_after(&out.result_line, "failed").unwrap_or(0.0),
                out.digest,
            );
            for (name, unit) in names {
                let value = number_after(&out.result_line, name)
                    .ok_or(format!("{workload}: {name} missing"))?;
                println!("  {name:36} {value:>16.4} {unit}");
            }
        }
    }
    Ok(ok)
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction that
/// counts as worse for the metric (negative when `b` is better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// `calibrate`: `sets` interleaved sets of `runs` end-to-end runs of every
/// workload, run `i` of every set on seed `seed + i`. Prints, per workload
/// and metric, each set's median, quartiles and spread, the worst gap
/// between set medians, and the bound; fails if a spread (other than that
/// of `setup_s`) or a gap exceeds the bound, if a run was incorrect, or if
/// two runs on one seed disagree on the answer digest.
pub fn calibrate(args: &Args) -> Result<bool, String> {
    if args.sets < 2 || args.runs < 2 {
        return Err("calibrate needs --sets >= 2 and --runs >= 2".to_string());
    }
    let mut ok = true;
    println!(
        "| workload | metric | {} | worst gap | bound | verdict |",
        (0..args.sets)
            .map(|s| format!("set {s}: median [q1, q3] spread"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|---|", "---|".repeat(args.sets));
    for (workload, _) in WORKLOADS {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; args.sets];
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            let mut digests = Vec::new();
            for set_values in values.iter_mut() {
                let out = child_run(args, workload, seed, false)?;
                eprintln!("{workload} seed {seed}: {}", out.result_line);
                ok &= out.correct;
                digests.push(out.digest);
                for (m, per_metric) in END_TO_END.iter().zip(set_values.iter_mut()) {
                    per_metric.push(
                        number_after(&out.result_line, m.name)
                            .ok_or(format!("{workload}: {} missing", m.name))?,
                    );
                }
            }
            // The online workloads' digests depend on how requests happen
            // to fall into batches; only the offline ones must repeat.
            if workload.starts_with("batch-") && digests.iter().any(|d| *d != digests[0]) {
                eprintln!("{workload} seed {seed}: answer digests differ: {digests:?}");
                ok = false;
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| median(&set[i])).collect();
            let spreads: Vec<f64> = values.iter().map(|set| spread(&set[i])).collect();
            let gap = medians
                .iter()
                .flat_map(|a| medians.iter().map(|b| worsening(*a, *b, m.better)))
                .fold(0.0, f64::max);
            let steady = m.name == "setup_s" || spreads.iter().all(|s| *s <= m.bound);
            let verdict = if steady && gap <= m.bound { "ok" } else { "EXCEEDS" };
            ok &= verdict == "ok";
            let cells: Vec<String> = values
                .iter()
                .zip(&medians)
                .zip(&spreads)
                .map(|((set, med), s)| {
                    let (q1, q3) = quartiles(&set[i]);
                    format!("{med:.4} [{q1:.4}, {q3:.4}] {:.1}%", s * 100.0)
                })
                .collect();
            println!(
                "| {workload} | {} ({}) | {} | {:.1}% | {:.0}% | {verdict} |",
                m.name,
                m.unit,
                cells.join(" | "),
                gap * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
                        {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"ops_per_s\": \
                        {\"value\": 1111653.5, \"unit\": \"1/s\"}}}";

    #[test]
    fn result_line_fields_are_found_by_name() {
        assert_eq!(number_after(LINE, "attempted"), Some(1000.0));
        assert_eq!(number_after(LINE, "failed"), Some(0.0));
        assert_eq!(number_after(LINE, "setup_s"), Some(0.8127));
        assert_eq!(number_after(LINE, "ops_per_s"), Some(1111653.5));
        assert_eq!(number_after(LINE, "p50_us"), None);
        let notes = "{\"workload\": \"x\", \"seed\": 3, \"answer_digest\": \"0x00ab\"}";
        assert_eq!(string_after(notes, "answer_digest").as_deref(), Some("0x00ab"));
        assert_eq!(number_after(notes, "seed"), Some(3.0));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 125.0, "lower") - 0.25).abs() < 1e-12);
    }
}
