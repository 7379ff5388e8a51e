//! Proves every rule ID is live: each rule fires on its known-bad
//! fixture and stays quiet on its known-good twin. A rule that silently
//! stops matching (lexer regression, parser scoping typo, automaton
//! drift) fails here before it fails to protect the workspace.
//!
//! The flow rules care *where* a file lives — the O2 automata are armed
//! on specific workspace paths, C1/A1 only inside library crates — so
//! each fixture is analyzed at the path its rule watches. U1 judges a
//! whole program, so its fixtures are analyzed as one file of a small
//! program: the `u1_callers_*.rs` companions below.

use std::collections::BTreeSet;
use std::path::Path;

use xtask::Diagnostic;

/// The other analyzed files of a U1 fixture's program: a second library
/// file and a binary, at the paths they are analyzed at.
const U1_COMPANIONS: [(&str, &str); 2] = [
    ("crates/engine/src/u1_callers.rs", "u1_callers_lib.rs"),
    ("crates/core/src/bin/u1_tool.rs", "u1_callers_bin.rs"),
];

/// The read-only corpus of a U1 fixture's program.
const U1_CORPUS: [(&str, &str); 2] = [
    ("benchmark/src/u1_bench.rs", "u1_callers_bench.rs"),
    ("examples/u1_example.rs", "u1_callers_example.rs"),
];

/// The workspace-relative path a rule's fixtures are analyzed at.
fn analysis_path(rule: &str) -> &'static str {
    match rule {
        // The durable-ack automaton is armed on the server core loop.
        "O2" => "crates/server/src/core_loop.rs",
        // Lock discipline and atomic-ordering audits run in lib crates;
        // `engine` is where the real pool/queue locks live.
        "C1" | "A1" => "crates/engine/src/fixture_under_test.rs",
        _ => "crates/core/src/fixture_under_test.rs",
    }
}

fn read_fixture(fixture: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Analyzes `source` at `rule`'s watched path; for U1, as one file of
/// the fixture program.
fn analyze(rule: &str, source: &str) -> Vec<Diagnostic> {
    analyze_without(rule, source, &[])
}

/// [`analyze`], leaving out the program companions named in `without`.
fn analyze_without(rule: &str, source: &str, without: &[&str]) -> Vec<Diagnostic> {
    let file = (analysis_path(rule).to_string(), source.to_string());
    if rule != "U1" {
        return xtask::analyze_sources(&[file]);
    }
    let load = |set: &[(&str, &str)]| -> Vec<(String, String)> {
        set.iter()
            .filter(|(_, fixture)| !without.contains(fixture))
            .map(|(path, fixture)| (path.to_string(), read_fixture(fixture)))
            .collect()
    };
    let mut inputs = vec![file];
    inputs.extend(load(&U1_COMPANIONS));
    xtask::analyze_program(&inputs, &load(&U1_CORPUS))
}

/// Analyzes a fixture at `rule`'s watched path and returns the fired IDs.
fn fired(rule: &str, fixture: &str) -> BTreeSet<&'static str> {
    analyze(rule, &read_fixture(fixture)).into_iter().map(|d| d.rule).collect()
}

#[test]
fn every_rule_id_fires_on_its_bad_fixture() {
    for rule in xtask::RULE_IDS {
        let fixture = format!("{}_bad.rs", rule.to_lowercase());
        let rules = fired(rule, &fixture);
        assert!(rules.contains(rule), "rule {rule} did not fire on {fixture}; fired: {rules:?}");
    }
}

#[test]
fn every_rule_stays_quiet_on_its_good_fixture() {
    for rule in xtask::RULE_IDS {
        let fixture = format!("{}_good.rs", rule.to_lowercase());
        let rules = fired(rule, &fixture);
        assert!(
            !rules.contains(rule),
            "rule {rule} fired on the known-good {fixture}; fired: {rules:?}"
        );
    }
}

#[test]
fn bad_fixtures_fire_only_their_own_rule() {
    // Keeps the fixtures minimal: a D1 fixture that also trips P1 would
    // blur which rule a future regression broke. (The P1 fixture uses
    // plain std types, so it genuinely only trips P1, etc.)
    for rule in xtask::RULE_IDS {
        let fixture = format!("{}_bad.rs", rule.to_lowercase());
        let rules = fired(rule, &fixture);
        assert_eq!(rules, BTreeSet::from([rule]), "{fixture} should trip exactly its own rule");
    }
}

#[test]
fn good_fixtures_are_fully_clean() {
    // Stronger than rule-quiet: the good twins model code as it should be
    // written, so *no* rule may fire on them.
    for rule in xtask::RULE_IDS {
        let fixture = format!("{}_good.rs", rule.to_lowercase());
        let diags = analyze(rule, &read_fixture(&fixture));
        assert!(diags.is_empty(), "{fixture} should be fully clean: {diags:?}");
    }
}

#[test]
fn diagnostics_carry_real_spans() {
    let source = read_fixture("d1_bad.rs");
    let diags = xtask::analyze_source("crates/core/src/fixture_under_test.rs", &source);
    for d in &diags {
        let line = source.lines().nth(d.line - 1).expect("diagnostic line exists");
        let name = if d.rule == "D1" { "Hash" } else { "" };
        assert!(
            line[d.col - 1..].starts_with(name),
            "span {}:{} does not point at the offending token in {line:?}",
            d.line,
            d.col
        );
    }
    assert!(diags.len() >= 5, "all five D1 sites in the fixture are reported");
}

#[test]
fn unsafe_fires_despite_allow_markers_and_test_regions() {
    // The unsafe confinement check is deliberately harder than the rest of
    // P1: the fixture wraps its `unsafe` blocks in an allow_file marker, a
    // line marker, and a #[cfg(test)] region — all three must fail to
    // silence it.
    let source = read_fixture("p1_unsafe_bad.rs");
    let diags = xtask::analyze_source("crates/core/src/fixture_under_test.rs", &source);
    let unsafe_hits: Vec<_> =
        diags.iter().filter(|d| d.rule == "P1" && d.msg.contains("unsafe")).collect();
    assert_eq!(unsafe_hits.len(), 2, "both unsafe blocks must be reported: {diags:?}");
    for d in &unsafe_hits {
        let line = source.lines().nth(d.line - 1).expect("diagnostic line exists");
        assert!(line[d.col - 1..].starts_with("unsafe"), "span points at the token: {line:?}");
    }
}

#[test]
fn unsafe_is_quiet_in_the_sanctioned_kernel_file() {
    // The same source lints clean (of unsafe findings) at a sanctioned path.
    let source = read_fixture("p1_unsafe_bad.rs");
    for sanctioned in xtask::rules::UNSAFE_SANCTIONED {
        let diags = xtask::analyze_source(sanctioned, &source);
        assert!(
            !diags.iter().any(|d| d.msg.contains("unsafe")),
            "sanctioned path {sanctioned} must permit unsafe: {diags:?}"
        );
    }
}

#[test]
fn per_rule_allow_markers_silence_bad_fixtures() {
    for rule in xtask::RULE_IDS {
        let fixture = format!("{}_bad.rs", rule.to_lowercase());
        let source = read_fixture(&fixture);
        let allowed = format!("// dcart_lint::allow_file({rule}) -- fixture self-test\n{source}");
        let rules: BTreeSet<&str> = analyze(rule, &allowed).into_iter().map(|d| d.rule).collect();
        assert!(!rules.contains(rule), "allow_file({rule}) did not silence {fixture}");
    }
}

#[test]
fn g1_reports_every_global_and_spares_only_the_marked_signal_latch() {
    // G1 is not scoped to library crates: the bench harness is checked too,
    // and each finding points at its `static` token.
    let source = read_fixture("g1_bad.rs");
    let diags = xtask::analyze_source("crates/bench/src/fixture_under_test.rs", &source);
    assert_eq!(diags.len(), 6, "all six globals in the fixture are reported: {diags:?}");
    for d in &diags {
        let line = source.lines().nth(d.line - 1).expect("diagnostic line exists");
        assert!(line[d.col - 1..].starts_with("static"), "span points at the token: {line:?}");
    }

    // The real SIGINT latch is the one sanctioned global: clean with its
    // marker, and the only finding once the marker is gone.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../server/src/signal.rs");
    let real = std::fs::read_to_string(&path).expect("signal.rs readable");
    assert!(xtask::analyze_source("crates/server/src/signal.rs", &real).is_empty());
    let unmarked = real.replace("dcart_lint::allow(G1)", "marker removed");
    let diags = xtask::analyze_source("crates/server/src/signal.rs", &unmarked);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].rule == "G1" && diags[0].msg.contains("SIGINT_SEEN"), "{diags:?}");
}

#[test]
fn d2_fires_in_the_server_library_but_not_its_binary() {
    // The serving layer's whole determinism story rests on this scoping:
    // wall-clock reads are banned in `crates/server/src/` (deadlines go
    // through the injected `time::Clock`) and sanctioned only under
    // `crates/server/src/bin/`, where the real clock is constructed.
    let bad = read_fixture("d2_server_bad.rs");
    let good = read_fixture("d2_server_good.rs");

    let in_lib: BTreeSet<&str> = xtask::analyze_source("crates/server/src/core_loop.rs", &bad)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    assert!(in_lib.contains("D2"), "wall-clock reads in the server library must fire D2");

    let in_bin = xtask::analyze_source("crates/server/src/bin/dcart-server/clock.rs", &good);
    assert!(in_bin.is_empty(), "the server binary is D2-whitelisted: {in_bin:?}");

    // And the whitelist is exactly the bin directory: the same good
    // fixture still fires when placed one level up, in the library.
    let good_in_lib: BTreeSet<&str> = xtask::analyze_source("crates/server/src/clock.rs", &good)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    assert!(good_in_lib.contains("D2"), "only src/bin is whitelisted, not the server lib");
}

#[test]
fn checkpoint_install_automaton_fires_on_its_own_fixture_pair() {
    // O2's rule-ID fixtures exercise the durable-ack automaton; the
    // checkpoint-install one (rename -> directory sync -> WAL reset) has
    // its own pair, analyzed at both files it is armed on.
    let bad = read_fixture("o2_install_bad.rs");
    let good = read_fixture("o2_install_good.rs");
    for path in ["crates/core/src/durable.rs", "crates/server/src/core_loop.rs"] {
        let diags = xtask::analyze_source(path, &bad);
        assert_eq!(diags.len(), 1, "exactly the misplaced directory sync: {diags:?}");
        assert_eq!(diags[0].rule, "O2");
        assert!(
            diags[0].msg.contains("checkpoint-install")
                && diags[0].msg.contains("directory sync (stage 2)")
                && diags[0].msg.contains("WAL reset (stage 3)"),
            "{}",
            diags[0].msg
        );
        let diags = xtask::analyze_source(path, &good);
        assert!(diags.is_empty(), "o2_install_good.rs should be fully clean: {diags:?}");
    }
}

#[test]
fn flow_rules_are_scoped_to_their_paths() {
    // The same bad sources are *quiet* outside the paths their rules
    // watch: the O2 automaton is not armed in `crates/core/src/lib.rs`,
    // and C1/A1 do not run in the bench harness (not a LIB_CRATE).
    let o2 = read_fixture("o2_bad.rs");
    let diags = xtask::analyze_source("crates/core/src/lib.rs", &o2);
    assert!(
        !diags.iter().any(|d| d.rule == "O2"),
        "O2 must only arm on its automaton files: {diags:?}"
    );

    let a1 = read_fixture("a1_bad.rs");
    let diags = xtask::analyze_source("crates/bench/src/lib.rs", &a1);
    assert!(!diags.iter().any(|d| d.rule == "A1"), "A1 is scoped to lib crates: {diags:?}");
}

#[test]
fn a1_has_no_exempt_file() {
    // Every library file is audited, the ART crate's included.
    let a1 = read_fixture("a1_bad.rs");
    for path in ["crates/art/src/sync.rs", "crates/art/src/tree.rs"] {
        let diags = xtask::analyze_source(path, &a1);
        assert_eq!(diags.len(), 2, "both unmarked orderings fire at {path}: {diags:?}");
        assert!(diags.iter().all(|d| d.rule == "A1"), "{diags:?}");
    }
}

#[test]
fn u1_judges_the_whole_program() {
    // Test-only, re-export-only, unmentioned and self-named-only items
    // fire, each at its `pub` token.
    let bad = read_fixture("u1_bad.rs");
    let diags = analyze("U1", &bad);
    let named: Vec<&str> = diags
        .iter()
        .map(|d| {
            let line = bad.lines().nth(d.line - 1).expect("diagnostic line exists");
            assert!(line[d.col - 1..].starts_with("pub "), "span points at `pub`: {line:?}");
            d.msg.split('`').nth(1).expect("message names the item")
        })
        .collect();
    assert_eq!(
        named,
        [
            "pub fn only_tested",
            "pub fn only_reexported",
            "pub struct Unmentioned",
            "pub const UNREAD",
            "pub struct SelfNamed"
        ]
    );

    // Each companion is what keeps its item quiet: leave one out, and
    // exactly that item fires.
    let good = read_fixture("u1_good.rs");
    for (companion, item) in [
        ("u1_callers_lib.rs", "used_by_another_lib_file"),
        ("u1_callers_bin.rs", "used_by_a_binary"),
        ("u1_callers_bench.rs", "used_by_the_benchmark"),
        ("u1_callers_example.rs", "UsedByAnExample"),
    ] {
        let diags = analyze_without("U1", &good, &[companion]);
        assert_eq!(diags.len(), 1, "without {companion}: {diags:?}");
        assert!(diags[0].rule == "U1" && diags[0].msg.contains(item), "{diags:?}");
    }

    // U1 is armed only on a whole program: the same file analyzed on its
    // own stays quiet.
    let diags = xtask::analyze_source(analysis_path("U1"), &bad);
    assert!(diags.is_empty(), "U1 must not fire outside a whole-program analysis: {diags:?}");
}

#[test]
fn a_stale_u1_allow_fires_s1_where_u1_is_armed() {
    let anchor = "/// Called from a binary under `src/bin/`.\n";
    let good = read_fixture("u1_good.rs");
    assert!(good.contains(anchor), "anchor present in u1_good.rs");
    let stale = good.replace(anchor, &format!("{anchor}// dcart_lint::allow(U1) -- stale\n"));
    let marker_line = stale.lines().position(|l| l.contains("-- stale")).expect("marker") + 1;

    let diags = analyze("U1", &stale);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].rule, diags[0].line), ("S1", marker_line), "{diags:?}");

    // Unarmed, U1 markers are not judged.
    let diags = xtask::analyze_source(analysis_path("U1"), &stale);
    assert!(diags.is_empty(), "{diags:?}");
}
