//! Every workload at 1/50 scale through the real binary, both runs, with
//! the same output checks as at full scale.

use std::process::Command;

const WORKLOADS: [&str; 4] =
    ["batch-skew-rw", "batch-uniform-scan", "serve-volatile", "serve-durable"];

/// Runs the binary and returns `(exit ok, notes line, result line)`.
fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcart-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev().map(str::to_string);
    let result = lines.next().unwrap_or_default();
    (out.status.success(), lines.next().unwrap_or_default(), result)
}

#[test]
fn every_workload_runs_end_to_end_and_traced_at_smoke_scale() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let (end_to_end, per_layer) = manifest.split_once("\"per_layer\"").expect("both metric lists");
    let names = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains("\"better\""))
            .map(|l| l.split('"').nth(3).expect("a name").to_string())
            .collect()
    };
    for workload in WORKLOADS {
        for (trace, expected) in [("0", names(end_to_end)), ("1", names(per_layer))] {
            let (ok, _, result) = run(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(ok, "{workload} trace {trace}: {result}");
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
            assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
            assert!(!expected.is_empty());
            for name in &expected {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: {name}"
                );
            }
            assert_eq!(result.matches("\"unit\": ").count(), expected.len(), "{workload}");
        }
    }
}

#[test]
fn offline_digest_repeats_for_a_seed_and_changes_with_it() {
    let digest = |seed: &str| {
        let (ok, notes, _) = run(&[
            "--workload",
            "batch-skew-rw",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ]);
        let (_, rest) = notes.split_once("\"answer_digest\": \"0x").expect("a digest in the notes");
        assert!(ok, "{notes}");
        rest[..16].to_string()
    };
    assert_eq!(digest("11"), digest("11"));
    assert_ne!(digest("11"), digest("12"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "no-such-workload"][..], &["--seed", "x"], &["--frobnicate"], &[]]
    {
        let (ok, _, result) = run(args);
        assert!(!ok && !result.contains("\"correct\""), "{args:?}: {result}");
    }
}
