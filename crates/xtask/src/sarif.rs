//! SARIF 2.1.0 output for `xtask analyze` findings.
//!
//! Hand-rolled JSON (the build is offline; xtask stays dependency-free).
//! The shape is the minimal subset GitHub code scanning consumes: one run,
//! a tool driver with per-rule metadata, and one result per diagnostic
//! with a physical location. Results are emitted in the diagnostics'
//! (already sorted) order so the artifact is byte-stable.

use crate::rules::{Diagnostic, RULE_SUMMARIES};

/// Renders diagnostics as a SARIF 2.1.0 log for the named tool.
pub fn render(tool: &str, diags: &[Diagnostic]) -> String {
    let mut s = String::with_capacity(4096 + diags.len() * 256);
    s.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    s.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    s.push_str(&format!("\"name\":{},", quote(tool)));
    s.push_str("\"informationUri\":\"https://github.com/\",\"rules\":[");
    for (i, (id, summary)) in RULE_SUMMARIES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
             \"defaultConfiguration\":{{\"level\":\"error\"}}}}",
            quote(id),
            quote(summary)
        ));
    }
    s.push_str("]}},\"results\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{},\
             \"uriBaseId\":\"%SRCROOT%\"}},\"region\":{{\"startLine\":{},\
             \"startColumn\":{}}}}}}}]}}",
            quote(d.rule),
            quote(&format!("{} (help: {})", d.msg, d.help)),
            quote(&d.path),
            d.line,
            d.col
        ));
    }
    s.push_str("]}]}");
    s
}

/// JSON string quoting with the escapes SARIF content can contain.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_shape_with_escapes() {
        let d = Diagnostic {
            path: "crates/core/src/x.rs".to_string(),
            line: 3,
            col: 7,
            rule: "D1",
            msg: "a \"quoted\" thing".to_string(),
            help: "line\nbreak".to_string(),
        };
        let out = render("dcart-analyze", &[d]);
        assert!(out.contains("\"version\":\"2.1.0\""));
        assert!(out.contains("\"ruleId\":\"D1\""));
        assert!(out.contains("\\\"quoted\\\""));
        assert!(out.contains("\\n"));
        assert!(out.contains("\"startLine\":3"));
        // Balanced braces/brackets — cheap structural sanity.
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_results_are_still_a_run() {
        let out = render("dcart-analyze", &[]);
        assert!(out.contains("\"results\":[]"));
        assert!(out.contains("dcart-analyze"));
    }
}
