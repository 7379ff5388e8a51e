//! # xtask — workspace automation for the DCART reproduction
//!
//! One entry point, `cargo run -p xtask -- analyze`, runs every rule in
//! one serial pass over the whole program. Per file, over the surface
//! lexer in [`lexer`]: the lexical rules D1 D2 P1 F1 O1 G1 and the
//! atomic-ordering audit [`rules::a1`] (A1). Across files: the item parser
//! in [`parse`] builds per-function flow trees, [`graph`] assembles a
//! conservative workspace call graph, and [`flow`] checks the protocol
//! call-order automata (O2) and the lock acquisition graph (C1). Over the
//! whole program — the workspace plus the read-only `examples/` and
//! `benchmark/src/` corpus — [`rules::u1`] reports library `pub` items
//! that no non-test code references (U1). S1 judges every suppression
//! marker last.
//!
//! The pass is pure std — the build environment is offline, so instead of
//! `syn` the analysis runs over a hand-rolled lexer/parser that is precise
//! enough for identifier-level matching with real source spans. It emits
//! deterministically sorted diagnostics, as human text or SARIF
//! ([`sarif`]) for CI annotation upload.
//!
//! The library surface exists so the fixture suite under `tests/` can
//! prove every rule ID fires on a known-bad snippet and stays quiet on a
//! known-good one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;

use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, RULE_IDS};

/// Full analysis of a set of files as one unit: the lexical rules per
/// file, then the flow rules (O2, C1, A1) over the joint call graph, then
/// S1 over every marker. Hermetic — no filesystem access, no
/// workspace-presence checks — which is what the fixture and mutation
/// tests build on. U1 stays unarmed: these files are not the whole
/// program (see [`analyze_program`]).
pub fn analyze_sources(inputs: &[(String, String)]) -> Vec<Diagnostic> {
    analyze(inputs, None)
}

/// [`analyze_sources`] over a whole program, which arms U1: `inputs` are
/// every analyzed file, and `corpus` is read-only code that uses the
/// libraries (examples, the benchmark package) — lexed for references,
/// never linted.
pub fn analyze_program(
    inputs: &[(String, String)],
    corpus: &[(String, String)],
) -> Vec<Diagnostic> {
    analyze(inputs, Some(corpus))
}

fn analyze(inputs: &[(String, String)], corpus: Option<&[(String, String)]>) -> Vec<Diagnostic> {
    let mut lines = Vec::with_capacity(inputs.len());
    let mut toks = Vec::with_capacity(inputs.len());
    let mut files: Vec<(String, parse::ParsedFile, Vec<bool>)> = Vec::with_capacity(inputs.len());
    for (path, source) in inputs {
        let file_lines = lexer::scan(source);
        let file_toks = parse::tokenize(&file_lines);
        files.push((path.clone(), parse::parse(&file_toks), rules::test_regions(&file_lines)));
        lines.push(file_lines);
        toks.push(file_toks);
    }
    let ctxs: Vec<rules::FileCtx> = inputs
        .iter()
        .zip(&lines)
        .map(|((path, _), lines)| rules::FileCtx::new(path, lines))
        .collect();

    let mut out = Vec::new();
    for ctx in &ctxs {
        rules::d1(ctx, &mut out);
        rules::d2(ctx, &mut out);
        rules::p1(ctx, &mut out);
        rules::f1(ctx, &mut out);
        rules::o1(ctx, &mut out);
        rules::g1(ctx, &mut out);
        rules::a1(ctx, &mut out);
    }
    let g = graph::Graph::build(&files);
    flow::o2(&ctxs, &files, &mut out);
    flow::c1(&ctxs, &files, &g, &mut out);
    if let Some(corpus) = corpus {
        let corpus: Vec<_> = corpus
            .iter()
            .map(|(_, source)| {
                let lines = lexer::scan(source);
                (parse::tokenize(&lines), rules::test_regions(&lines))
            })
            .collect();
        let toks: Vec<&[parse::Tok]> = toks.iter().map(Vec::as_slice).collect();
        rules::u1(&ctxs, &toks, &corpus, &mut out);
    }
    for ctx in &ctxs {
        rules::s1(ctx, corpus.is_some(), &mut out);
    }
    out.sort();
    out.dedup();
    out
}

/// [`analyze_sources`] for a single file.
pub fn analyze_source(path: &str, source: &str) -> Vec<Diagnostic> {
    analyze_sources(&[(path.to_string(), source.to_string())])
}

/// Analyzes the whole workspace rooted at `root`.
///
/// Scans `crates/*/src/**/*.rs` (unit tests inside those files are
/// excluded by the `#[cfg(test)]` region tracker; integration tests,
/// benches and fixtures are not scanned at all) as one program with the
/// `examples/*.rs` and `benchmark/src/**/*.rs` corpus
/// ([`analyze_program`]), then runs the workspace-level checks:
///
/// * every [`rules::LIB_CRATES`] root carries `#![forbid(unsafe_code)]`
///   — or, for a crate owning a [`rules::UNSAFE_SANCTIONED`] file,
///   `#![deny(unsafe_code)]` (the sanctioned file re-allows it on the one
///   function holding the block; `forbid` cannot be overridden, so `deny`
///   is the strongest root attribute compatible with the exception) — and
///   the `deny(clippy::unwrap_used, clippy::panic)` cfg_attr;
/// * every [`rules::F1_MAGICS`] literal is actually defined at its single
///   source of truth.
///
/// Returns diagnostics sorted by (path, line, col, rule) and the number
/// of files scanned.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let inputs = read_files(root, &files)?;
    let mut corpus_files = Vec::new();
    for dir in ["examples", "benchmark/src"].map(|d| root.join(d)) {
        if dir.is_dir() {
            collect_rs(&dir, &mut corpus_files)?;
        }
    }
    corpus_files.sort();
    let corpus = read_files(root, &corpus_files)?;
    let mut out = analyze_program(&inputs, &corpus);
    workspace_checks(root, &inputs, &mut out)?;
    out.sort();
    out.dedup();
    Ok((out, inputs.len()))
}

/// Reads `files` as (workspace-relative path, source) pairs.
fn read_files(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<(String, String)>> {
    files.iter().map(|f| Ok((rel_path(root, f), std::fs::read_to_string(f)?))).collect()
}

/// The cross-file presence checks of [`analyze_workspace`].
fn workspace_checks(
    root: &Path,
    inputs: &[(String, String)],
    out: &mut Vec<Diagnostic>,
) -> std::io::Result<()> {
    for (magic, def) in rules::F1_MAGICS {
        let defined = inputs.iter().any(|(rel, source)| rel == def && source.contains(magic));
        if !defined {
            out.push(Diagnostic {
                path: def.to_string(),
                line: 1,
                col: 1,
                rule: "F1",
                msg: format!("magic `{magic}` is not defined at its single source of truth"),
                help: format!("define the `{magic}` header constant in `{def}` (or update the F1 table in crates/xtask/src/rules.rs if the module moved)"),
            });
        }
    }

    for name in rules::LIB_CRATES {
        let rel = format!("crates/{name}/src/lib.rs");
        let lib = root.join(&rel);
        let source = std::fs::read_to_string(&lib)?;
        let lines = lexer::scan(&source);
        let code: String =
            lines.iter().flat_map(|l| l.code.chars().filter(|c| !c.is_whitespace())).collect();
        let owns_sanctioned =
            rules::UNSAFE_SANCTIONED.iter().any(|p| p.starts_with(&format!("crates/{name}/src/")));
        if owns_sanctioned {
            if !code.contains("#![deny(unsafe_code)]") {
                out.push(root_diag(
                    &rel,
                    "missing `#![deny(unsafe_code)]` on the crate root (this crate owns a \
                     sanctioned unsafe file, so the root downgrades forbid to deny and the \
                     function holding the unsafe block carries a reviewed \
                     `#[allow(unsafe_code)]`)",
                ));
            }
        } else if !code.contains("#![forbid(unsafe_code)]") {
            out.push(root_diag(&rel, "missing `#![forbid(unsafe_code)]` on the crate root"));
        }
        if !(code.contains("clippy::unwrap_used") && code.contains("clippy::panic")) {
            out.push(root_diag(
                &rel,
                "missing `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]` on the crate root",
            ));
        }
    }
    Ok(())
}

fn root_diag(rel: &str, msg: &str) -> Diagnostic {
    Diagnostic {
        path: rel.to_string(),
        line: 1,
        col: 1,
        rule: "P1",
        msg: msg.to_string(),
        help: "every library crate root pins the unsafe/panic policy; copy the attribute \
               block from crates/core/src/lib.rs"
            .to_string(),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // Fixture snippets are data for the lint's own tests, not code.
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_snippet_produces_no_diagnostics() {
        let src = "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
        assert!(analyze_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_render_with_spans() {
        let d = &analyze_source("crates/core/src/x.rs", "use std::collections::HashMap;\n")[0];
        assert_eq!((d.rule, d.line, d.col), ("D1", 1, 23));
        let shown = d.to_string();
        assert!(shown.contains("error[D1]") && shown.contains("crates/core/src/x.rs:1:23"));
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { let _: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(analyze_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_markers_silence_one_line() {
        let src = "// dcart_lint::allow(D1) -- interned keys, order never observed\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let diags = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn stale_markers_are_flagged_and_suppressible() {
        // The D1 marker silences nothing: S1.
        let src = "// dcart_lint::allow(D1) -- stale\nuse std::collections::BTreeMap;\n";
        let diags = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "S1");
        // Unknown rule IDs are S1 too.
        let src = "// dcart_lint::allow(Z9) -- typo\n";
        assert_eq!(analyze_source("crates/core/src/x.rs", src)[0].rule, "S1");
        // An atomic marker with no atomic on the next line is stale.
        let src = "// dcart_lint::atomic(orphaned)\nfn f() {}\n";
        let diags = analyze_source("crates/engine/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "S1");
    }

    #[test]
    fn workspace_analyze_is_clean() {
        // The repo must analyze clean at all times — this is the same check
        // CI runs, pulled into the unit suite so `cargo test` catches drift.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (diags, files) = analyze_workspace(&root).expect("workspace readable");
        assert!(files > 50, "expected to scan the whole workspace, got {files} files");
        assert!(
            diags.is_empty(),
            "dcart-analyze found {} violation(s):\n{}",
            diags.len(),
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
