//! Golden-output test: pins the exact rendered diagnostics — text and
//! SARIF — for a fixed multi-file fixture analysis. Two properties ride
//! on this: the output is *deterministic* (sorted by file, then span,
//! then rule — scan order and thread scheduling never leak through), and
//! the rendered format is *stable* (editor integrations and the CI SARIF
//! upload both parse it).
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p xtask --test golden_output`

use std::path::Path;

/// The fixed analysis: four bad fixtures at the paths their rules watch,
/// deliberately fed in non-sorted order to prove the output ordering is
/// imposed by the analyzer, not inherited from the input.
fn analysis() -> Vec<xtask::Diagnostic> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).expect("fixture readable");
    let inputs = vec![
        ("crates/server/src/core_loop.rs".to_string(), read("o2_bad.rs")),
        ("crates/core/src/durable.rs".to_string(), read("o2_install_bad.rs")),
        ("crates/engine/src/fixture_under_test.rs".to_string(), read("a1_bad.rs")),
        ("crates/core/src/fixture_under_test.rs".to_string(), read("d1_bad.rs")),
    ];
    xtask::analyze_sources(&inputs)
}

fn check_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, rendered).expect("golden writable");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} unreadable ({e}); run with UPDATE_GOLDEN=1", name));
    assert_eq!(
        rendered, expected,
        "rendered {name} drifted from the committed golden; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn text_report_matches_golden() {
    let diags = analysis();
    let text = diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n\n") + "\n";
    check_golden("report.txt", &text);
}

#[test]
fn sarif_report_matches_golden() {
    let diags = analysis();
    let sarif = xtask::sarif::render("dcart-analyze", &diags);
    check_golden("report.sarif", &sarif);
}

#[test]
fn diagnostics_are_sorted_by_file_span_rule() {
    let diags = analysis();
    assert!(!diags.is_empty(), "the fixed fixture set must produce findings");
    let keys: Vec<_> = diags.iter().map(|d| (d.path.clone(), d.line, d.col, d.rule)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics must come out pre-sorted");
}

#[test]
fn analysis_is_deterministic_across_runs() {
    // Same inputs, two independent runs (the second from a differently
    // ordered input list) — byte-identical reports.
    let a = analysis();
    let b = analysis();
    assert_eq!(a, b);
}
