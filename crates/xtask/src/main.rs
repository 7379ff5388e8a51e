//! `cargo run -p xtask -- analyze` — the DCART workspace static-analysis
//! driver.

use std::path::PathBuf;
use std::process::ExitCode;

/// The tool name reported in summaries and SARIF.
const NAME: &str = "dcart-analyze";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            if let Some(cmd) = other {
                eprintln!("xtask: unknown command `{cmd}`");
            }
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo run -p xtask -- analyze [--format text|sarif] [--out FILE] [WORKSPACE_ROOT]"
    );
    eprintln!();
    eprintln!(
        "  analyze  every rule ({}) in one pass over the whole program:",
        xtask::RULE_IDS.join(" ")
    );
    eprintln!("           crates/*/src plus the examples/ and benchmark/src/ corpus");
    eprintln!();
    eprintln!("  --format sarif   emit SARIF 2.1.0 (to stdout, or FILE with --out); the");
    eprintln!("                   text findings still go to stderr");
    eprintln!("  --out FILE       write the report to FILE instead, on every run");
    eprintln!();
    eprintln!("See DESIGN.md \"Correctness & static analysis\" for the rule table and");
    eprintln!("the `// dcart_lint::allow(<RULE>) -- reason` / `// dcart_lint::atomic(<REASON>)`");
    eprintln!("marker syntax. Exit status: 0 clean, 1 violations, 2 usage/io error.");
}

fn analyze(rest: &[String]) -> ExitCode {
    let mut format_sarif = false;
    let mut out_file: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("sarif") => format_sarif = true,
                Some("text") => format_sarif = false,
                other => {
                    eprintln!("xtask: --format expects `text` or `sarif`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(f) => out_file = Some(PathBuf::from(f)),
                None => {
                    eprintln!("xtask: --out expects a file path");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("xtask: unknown flag `{flag}`");
                usage();
                return ExitCode::from(2);
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(|| {
        let cwd = PathBuf::from(".");
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            // Running from somewhere inside the tree: anchor on this
            // crate's manifest, two levels below the workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });

    let (diags, files) = match xtask::analyze_workspace(&root) {
        Ok(pair) => pair,
        Err(err) => {
            eprintln!("xtask {NAME}: cannot read workspace at {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    // Findings as text, "" on a clean tree; a SARIF run still prints them
    // to stderr so a CI log shows them.
    let text = diags.iter().map(|d| format!("{d}\n")).collect::<Vec<_>>().join("\n");
    if !text.is_empty() && (format_sarif || out_file.is_none()) {
        eprintln!("{text}");
    }
    let report = if format_sarif { xtask::sarif::render(NAME, &diags) } else { text };
    match &out_file {
        Some(path) => {
            if let Err(err) = std::fs::write(path, &report) {
                eprintln!("xtask {NAME}: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
        None if format_sarif => println!("{report}"),
        None => {}
    }

    let rules = xtask::RULE_IDS;
    if format_sarif {
        eprintln!("{NAME}: {} violation(s) in {files} files (SARIF emitted)", diags.len());
    } else if diags.is_empty() {
        println!("{NAME}: {files} files clean across {} rules ({})", rules.len(), rules.join(" "));
    } else {
        eprintln!("{NAME}: {} violation(s) in {files} files", diags.len());
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
