//! Shell-out tests for the `repro` CLI contract: bad invocations exit
//! non-zero with a one-line actionable message, good ones exit zero. The
//! smaller tools (`diag`, `inspect`) refuse a count they cannot parse the
//! same way.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_is_an_error_with_guidance() {
    let out = repro(&[]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("missing exhibit"), "names the problem: {err}");
    assert!(err.contains("usage: repro"), "shows the fix: {err}");
}

#[test]
fn unknown_exhibit_is_an_error_naming_the_input() {
    let out = repro(&["fig99"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown exhibit 'fig99'"), "echoes the bad input: {err}");
    assert!(err.contains("crash"), "usage lists the durability exhibits: {err}");
}

#[test]
fn unknown_flag_is_an_error_naming_the_flag() {
    let out = repro(&["table1", "--bogus"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("unknown option '--bogus'"));
}

#[test]
fn invalid_flag_values_are_errors_with_the_expected_type() {
    for (args, needle) in [
        (vec!["table1", "--scale", "gigantic"], "unknown scale 'gigantic'"),
        (vec!["table1", "--scale"], "--scale needs a value"),
        (vec!["table1", "--jobs", "many"], "positive integer"),
        (vec!["table1", "--sou-threads", "-1"], "positive integer"),
        (vec!["table1", "--jobs", "0"], "positive integer"),
        (vec!["table1", "--sou-threads", "0"], "positive integer"),
        (vec!["table1", "--traverse", "per-op"], "unknown option '--traverse'"),
        (vec!["table1", "--split-threshold", "0.5"], "unknown option '--split-threshold'"),
        (vec!["soak", "--batches", "0"], "--batches must be at least 1"),
        (vec!["soak", "--batches", "x"], "positive integer"),
        (vec!["crash", "--seed", "abc"], "unsigned integer"),
        (vec!["table1", "--out"], "--out needs a directory"),
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(needle), "{args:?}: expected '{needle}' in: {err}");
        assert_eq!(
            err.lines().take_while(|l| !l.starts_with("usage:")).count(),
            1,
            "{args:?}: the diagnostic itself is one line: {err}"
        );
    }
}

#[test]
fn help_exits_zero_and_prints_usage() {
    for flag in ["help", "--help", "-h"] {
        let out = repro(&[flag]);
        assert!(out.status.success(), "{flag} is not an error");
        assert!(stderr_of(&out).contains("usage: repro"));
    }
}

#[test]
fn a_real_exhibit_exits_zero() {
    let tmp = std::env::temp_dir().join("dcart-cli-test");
    let out = repro(&["table1", "--out", tmp.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(tmp.join("table1.json").exists());
}

#[test]
fn every_exhibit_the_usage_lists_is_known() {
    let usage = stderr_of(&repro(&["--help"]));
    let names = usage
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(names, _)| names.split('|').collect::<Vec<_>>())
        .expect("usage lists the exhibits as <a|b|...>");
    for listed in ["timeline", "fig6", "scans", "indexes", "skew", "all"] {
        assert!(names.contains(&listed), "usage lists {listed}: {usage}");
    }
    // A listed name gets past the exhibit check to the option parser.
    for name in names {
        let out = repro(&[name, "--bogus"]);
        assert!(!out.status.success(), "{name} --bogus must fail");
        let err = stderr_of(&out);
        assert!(err.contains("unknown option '--bogus'"), "{name}: {err}");
    }
}

/// Runs `bin` with `args` and asserts the refusal of a count that does not
/// parse: exit 1 and only `line` on stderr, before any work.
fn assert_refused(bin: &str, args: &[&str], line: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {}", stderr_of(&out));
    assert_eq!(stderr_of(&out).trim_end(), line, "{bin} {args:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} did work before refusing");
}

#[test]
fn diag_refuses_a_count_it_cannot_parse() {
    let diag = env!("CARGO_BIN_EXE_diag");
    assert_refused(diag, &["abc"], "bad key count abc");
    assert_refused(diag, &["1000", "many"], "bad op count many");
    assert_refused(diag, &["1000", "2000", "-4"], "bad concurrency -4");
}

#[test]
fn inspect_refuses_a_key_count_it_cannot_parse() {
    assert_refused(env!("CARGO_BIN_EXE_inspect"), &["IPGEO", "lots"], "bad key count lots");
}
