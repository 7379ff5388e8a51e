//! The parallel experiment engine must be invisible in the reports:
//! `repro --jobs 1` and `repro --jobs 8` write byte-identical JSON for a
//! fixed seed, because cells are pure functions of their inputs and are
//! collected by input index, never by completion order. The same holds
//! for the executor options (`--sou-threads 2 --steal`): they reach every
//! engine and change no byte.

use std::path::Path;

use dcart::{ExecOpts, TraverseMode};
use dcart_bench::{experiments, Scale};

fn report_bytes(dir: &Path, name: &str) -> Vec<u8> {
    let path = dir.join(format!("{name}.json"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn run_all(scale: &Scale, dir: &Path) {
    experiments::fig2::run(scale, dir);
    experiments::fig3::run(scale, dir);
    experiments::overall::run(scale, dir);
    experiments::ablate::run(scale, dir);
    experiments::indexes::run(scale, dir);
    experiments::timeline::run(scale, dir);
}

#[test]
fn jobs_1_and_jobs_8_write_byte_identical_reports() {
    let base = Scale { keys: 2_000, ops: 6_000, concurrency: 2_048, seed: 7, ..Scale::smoke() };
    let stealing = ExecOpts { threads: 2, mode: TraverseMode::LevelWise, steal: true };
    let runs = [
        ("jobs1", Scale { jobs: 1, ..base }),
        ("jobs8", Scale { jobs: 8, ..base }),
        ("jobs8-sou2-steal", Scale { jobs: 8, exec: stealing, ..base }),
    ];
    let root = std::env::temp_dir().join("dcart-jobs-determinism");
    for (dir, scale) in &runs {
        run_all(scale, &root.join(dir));
    }

    let (first, _) = runs[0];
    for name in ["fig2", "fig3", "overall", "ablations", "indexes", "timeline"] {
        let a = report_bytes(&root.join(first), name);
        assert!(!a.is_empty(), "{name}.json is empty");
        for (dir, _) in &runs[1..] {
            let b = report_bytes(&root.join(dir), name);
            assert_eq!(a, b, "{name}.json differs between {first} and {dir}");
        }
    }
}
