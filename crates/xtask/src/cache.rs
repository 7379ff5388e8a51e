//! Content-hash cache for per-file lint results.
//!
//! `lint_workspace` runs inside `cargo test` on every build
//! (`workspace_lint_is_clean`), so the scan has a speed budget. File-local
//! lint results are a pure function of (path, contents, rule code), which
//! makes them perfectly cacheable: the key is an FNV-1a hash over the
//! path, the file bytes, and a rules-version string that must be bumped
//! whenever rule behaviour changes. Only the lexical per-file pass is
//! cached — cross-file analyses (call graph, lock graph, magic presence)
//! are always recomputed.
//!
//! Entries live under `target/xtask-cache/` as tab-separated records with
//! percent-style escaping. Every cache operation is best-effort: a
//! missing, unreadable, or malformed entry is a miss, and write failures
//! are ignored (CI sandboxes may mount `target/` read-only).

use std::path::{Path, PathBuf};

use crate::rules::{Diagnostic, RULE_IDS};

/// Bump on any change to rule behaviour or the diagnostic format, or every
/// stale cache entry becomes a wrong answer.
pub const RULES_VERSION: &str = "dcart-lint-v5";

/// FNV-1a over a byte stream.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The cache key for one file's lint result.
pub fn key(path: &str, contents: &str) -> u64 {
    fnv1a(&[RULES_VERSION.as_bytes(), b"\x1f", path.as_bytes(), b"\x1f", contents.as_bytes()])
}

/// Cache directory under the workspace's `target/`.
pub fn dir(root: &Path) -> PathBuf {
    root.join("target").join("xtask-cache")
}

fn entry_path(root: &Path, k: u64) -> PathBuf {
    dir(root).join(format!("{k:016x}.lint"))
}

/// Looks up a cached result. `None` is a miss.
pub fn load(root: &Path, k: u64) -> Option<Vec<Diagnostic>> {
    let text = std::fs::read_to_string(entry_path(root, k)).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return None;
        }
        // The rule must map back to its static id.
        let rule = RULE_IDS.iter().find(|r| **r == fields[3])?;
        out.push(Diagnostic {
            path: unescape(fields[0]),
            line: fields[1].parse().ok()?,
            col: fields[2].parse().ok()?,
            rule,
            msg: unescape(fields[4]),
            help: unescape(fields[5]),
        });
    }
    Some(out)
}

/// Stores a result; failures are silently ignored.
pub fn store(root: &Path, k: u64, diags: &[Diagnostic]) {
    let mut text = String::new();
    for d in diags {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            escape(&d.path),
            d.line,
            d.col,
            d.rule,
            escape(&d.msg),
            escape(&d.help)
        ));
    }
    let _ = std::fs::create_dir_all(dir(root));
    let _ = std::fs::write(entry_path(root, k), text);
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0a"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'%' && i + 2 < b.len() {
            match &s[i + 1..i + 3] {
                "25" => out.push('%'),
                "09" => out.push('\t'),
                "0a" => out.push('\n'),
                other => {
                    out.push('%');
                    out.push_str(other);
                }
            }
            i += 3;
        } else {
            out.push(b[i] as char);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_diagnostics() {
        let tmp = std::env::temp_dir().join(format!("xtask-cache-test-{}", std::process::id()));
        let diags = vec![Diagnostic {
            path: "crates/core/src/x.rs".to_string(),
            line: 4,
            col: 9,
            rule: "D1",
            msg: "tab\there %25 and\nnewline".to_string(),
            help: "h".to_string(),
        }];
        let k = key("crates/core/src/x.rs", "contents");
        store(&tmp, k, &diags);
        assert_eq!(load(&tmp, k), Some(diags));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn key_depends_on_path_and_contents() {
        assert_ne!(key("a.rs", "x"), key("a.rs", "y"));
        assert_ne!(key("a.rs", "x"), key("b.rs", "x"));
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let tmp = std::env::temp_dir().join("xtask-cache-test-missing");
        assert_eq!(load(&tmp, 42), None);
    }
}
