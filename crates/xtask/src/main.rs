//! `cargo run -p xtask -- <lint|analyze>` — the DCART workspace
//! static-analysis driver.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run(Cmd::Lint, &args[1..]),
        Some("analyze") => run(Cmd::Analyze, &args[1..]),
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
    eprintln!("usage: cargo run -p xtask -- <lint|analyze> [--format text|sarif] [--out FILE] [WORKSPACE_ROOT]");
    eprintln!();
    eprintln!(
        "  lint     fast lexical rules ({}) over crates/*/src",
        xtask::LINT_RULE_IDS.join(" ")
    );
    eprintln!(
        "  analyze  lint plus the flow rules ({}) over the workspace call graph, and {}",
        xtask::FLOW_RULE_IDS.join(" "),
        xtask::PROGRAM_RULE_IDS.join(" ")
    );
    eprintln!("           (unreferenced library `pub` items) over the whole program:");
    eprintln!("           crates/*/src plus the examples/ and benchmark/src/ corpus");
    eprintln!();
    eprintln!("  --format sarif   emit SARIF 2.1.0 (to stdout, or FILE with --out)");
    eprintln!("  --out FILE       write the report to FILE instead of stdout");
    eprintln!();
    eprintln!("See DESIGN.md \"Correctness & static analysis\" for the rule table and");
    eprintln!("the `// dcart_lint::allow(<RULE>) -- reason` / `// dcart_lint::atomic(<REASON>)`");
    eprintln!("marker syntax. Exit status: 0 clean, 1 violations, 2 usage/io error.");
}

enum Cmd {
    Lint,
    Analyze,
}

fn run(cmd: Cmd, rest: &[String]) -> ExitCode {
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

    let (name, rules, result) = match cmd {
        Cmd::Lint => ("dcart-lint", xtask::LINT_RULE_IDS.as_slice(), xtask::lint_workspace(&root)),
        Cmd::Analyze => {
            ("dcart-analyze", xtask::RULE_IDS.as_slice(), xtask::analyze_workspace(&root))
        }
    };
    let (diags, files) = match result {
        Ok(pair) => pair,
        Err(err) => {
            eprintln!("xtask {name}: cannot read workspace at {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    if format_sarif {
        let sarif = xtask::sarif::render(name, &diags);
        if let Some(path) = &out_file {
            if let Err(err) = std::fs::write(path, &sarif) {
                eprintln!("xtask {name}: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        } else {
            println!("{sarif}");
        }
        // Human summary still lands on stderr so CI logs stay readable.
        eprintln!("{name}: {} violation(s) in {files} files (SARIF emitted)", diags.len());
        return if diags.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if diags.is_empty() {
        println!("{name}: {files} files clean across {} rules ({})", rules.len(), rules.join(" "));
        ExitCode::SUCCESS
    } else {
        let text = diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n\n");
        if let Some(path) = &out_file {
            if let Err(err) = std::fs::write(path, format!("{text}\n")) {
                eprintln!("xtask {name}: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        } else {
            eprintln!("{text}");
            eprintln!();
        }
        eprintln!("{name}: {} violation(s) in {files} files", diags.len());
        ExitCode::FAILURE
    }
}
