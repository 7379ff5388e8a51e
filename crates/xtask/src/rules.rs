//! The DCART-specific lint and analysis rules.
//!
//! Each rule has a stable ID, protects one invariant the test suite cannot
//! cheaply express, and can be silenced per line with a marker comment
//! (`// dcart_lint::allow(D1) -- reason`) on the offending line or the
//! line above, or per file with `// dcart_lint::allow_file(D1) -- reason`.
//! Atomic-ordering sites are justified with a third marker form,
//! `// dcart_lint::atomic(REASON)`, same placement rules.
//!
//! Markers are *tracked*: a marker that silences nothing is itself an S1
//! error (like `unused_attributes`), so suppressions cannot rot in place
//! after the code they excused is refactored away.
//!
//! | ID | invariant |
//! |----|-----------|
//! | D1 | no default-hasher `HashMap`/`HashSet` (iteration order must not
//! |    | depend on the process-random SipHash seed) |
//! | D2 | no wall-clock / OS randomness / environment reads outside the
//! |    | bench timing module and CLI front-ends |
//! | P1 | uniform panic policy: no `unwrap()`/`panic!`/`todo!`, and
//! |    | `expect`/`unreachable` must document their invariant; the
//! |    | `unsafe` keyword is confined to [`UNSAFE_SANCTIONED`] files |
//! | F1 | on-disk magic strings are defined in exactly one module |
//! | O1 | no stdout/stderr prints in library crates |
//! | G1 | no process-global mutable state: no `static mut`, no `static`
//! |    | holding an atomic, lock, cell or once-cell, in any crate |
//! | O2 | protocol call-order automata hold on every path (durable-ack,
//! |    | checkpoint-install, drain) — see [`crate::flow`] |
//! | C1 | lock discipline: no acquisition-order cycles, no double-acquire
//! |    | on any path — see [`crate::flow`] |
//! | A1 | every `Ordering::Relaxed`/`Ordering::SeqCst` in a library crate
//! |    | carries a `dcart_lint::atomic(REASON)` marker |
//! | U1 | every `pub` item of a library crate is referenced by some
//! |    | non-test code of the whole program — see [`u1`] |
//! | S1 | no stale suppressions: every marker must silence something |

use std::cell::Cell;
use std::collections::BTreeSet;

use crate::lexer::{followed_by, ident_cols, preceded_by, LineView};
use crate::parse::Tok;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Stable rule ID (`"D1"`, ...).
    pub rule: &'static str,
    /// What is wrong.
    pub msg: String,
    /// How to fix or silence it.
    pub help: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.msg)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        write!(f, "  help: {}", self.help)
    }
}

/// All rule IDs, in documentation order.
pub const RULE_IDS: [&str; 11] = ["D1", "D2", "P1", "F1", "O1", "G1", "O2", "C1", "A1", "U1", "S1"];

/// The single-file lexical rules run by `xtask lint`.
pub const LINT_RULE_IDS: [&str; 6] = ["D1", "D2", "P1", "F1", "O1", "G1"];

/// The flow-aware rules added by `xtask analyze`.
pub const FLOW_RULE_IDS: [&str; 3] = ["O2", "C1", "A1"];

/// The rules armed only when `xtask analyze` is given the whole program.
pub const PROGRAM_RULE_IDS: [&str; 1] = ["U1"];

/// One-line summaries per rule, for `--format sarif` metadata.
pub const RULE_SUMMARIES: [(&str, &str); 11] = [
    ("D1", "no default-hasher HashMap/HashSet in deterministic code"),
    ("D2", "no wall-clock, OS-randomness, or environment reads in the functional layer"),
    ("P1", "uniform panic policy; unsafe confined to sanctioned kernel files"),
    ("F1", "on-disk magic strings have exactly one definition site"),
    ("O1", "no stdout/stderr prints in library crates"),
    ("G1", "no process-global mutable state (interior-mutable or mut statics)"),
    ("O2", "protocol call-order automata hold on every path"),
    ("C1", "lock discipline: no acquisition-order cycles or double-acquires"),
    ("A1", "Relaxed/SeqCst atomic orderings carry a written justification"),
    ("U1", "every pub library item is referenced by non-test code"),
    ("S1", "no stale suppression markers"),
];

/// Crates whose library code must obey the panic policy (P1) and the
/// no-print rule (O1). `bench` and `xtask` are the human-facing harness
/// surface: printing tables is their job and a panic is their
/// error-reporting strategy of last resort.
pub const LIB_CRATES: [&str; 8] =
    ["art", "mem", "engine", "core", "baselines", "indexes", "workloads", "server"];

/// The only files where the `unsafe` keyword is permitted: the reviewed
/// `std::arch` SIMD kernel module. Everything else in the workspace is
/// `forbid(unsafe_code)`; the owning crate of a sanctioned file downgrades
/// its root to `deny(unsafe_code)` plus a module-level
/// `#![allow(unsafe_code)]` inside the sanctioned file, so every unsafe
/// block still lives behind exactly one auditable gate. Widening this list
/// is a reviewed change to this table — the P1 check below deliberately
/// ignores `dcart_lint::allow` markers and `#[cfg(test)]` regions for the
/// `unsafe` token.
pub const UNSAFE_SANCTIONED: [&str; 2] = ["crates/art/src/simd.rs", "crates/server/src/signal.rs"];

/// Files (path prefixes) where wall-clock and environment reads are the
/// point: the harness's per-cell timing and the CLI front-ends.
pub const D2_WHITELIST: [&str; 4] = [
    "crates/bench/src/parallel.rs",
    "crates/bench/src/bin/",
    "crates/server/src/bin/",
    "crates/xtask/src/",
];

/// Single source of truth for each on-disk format magic: the literal may
/// appear (outside tests) only in its defining module.
pub const F1_MAGICS: [(&str, &str); 4] = [
    ("DCARTWAL", "crates/engine/src/wal.rs"),
    ("DCARTCKP", "crates/core/src/durable.rs"),
    ("DCARTSNP", "crates/art/src/serde_impl.rs"),
    ("DCARTNET", "crates/server/src/wire.rs"),
];

/// Paths never scanned for F1 (the lint's own rule tables name the magics).
pub const F1_SKIP: [&str; 1] = ["crates/xtask/"];

/// Marker form: per-line allow, per-file allow, or atomic justification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkerKind {
    /// `// dcart_lint::allow(RULE) -- reason` — this line and the next.
    Allow,
    /// `// dcart_lint::allow_file(RULE) -- reason` — the whole file.
    AllowFile,
    /// `// dcart_lint::atomic(REASON)` — justifies a Relaxed/SeqCst
    /// ordering on this line or the next.
    Atomic,
}

/// One suppression/justification marker, with usage tracking for S1.
#[derive(Debug)]
pub struct Marker {
    /// 0-based line the marker comment sits on.
    pub line0: usize,
    /// Marker form.
    pub kind: MarkerKind,
    /// Rule ID for allow markers; the justification text for atomic ones.
    pub arg: String,
    /// Set once the marker silences or justifies a finding.
    pub used: Cell<bool>,
}

/// Per-file context computed once, shared by every rule.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Lexed lines.
    pub lines: &'a [LineView],
    /// `lines[i]` is inside a `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    /// All markers in the file, in line order.
    pub markers: Vec<Marker>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context: test-region map and markers.
    pub fn new(path: &'a str, lines: &'a [LineView]) -> Self {
        let in_test = test_regions(lines);
        let mut markers = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            // The lexer strips the `//` opener, so doc comments surface as
            // `/ ...` or `! ...` in the comment channel. Doc comments
            // *describe* the marker syntax (this file does, extensively);
            // only plain `//` comments carry live markers.
            if l.comment.starts_with('/') || l.comment.starts_with('!') {
                continue;
            }
            for (opener, kind) in [
                ("dcart_lint::allow_file(", MarkerKind::AllowFile),
                ("dcart_lint::allow(", MarkerKind::Allow),
            ] {
                for rule in parse_marker(&l.comment, opener) {
                    markers.push(Marker { line0: i, kind, arg: rule, used: Cell::new(false) });
                }
            }
            for reason in parse_atomic(&l.comment) {
                markers.push(Marker {
                    line0: i,
                    kind: MarkerKind::Atomic,
                    arg: reason,
                    used: Cell::new(false),
                });
            }
        }
        FileCtx { path, lines, in_test, markers }
    }

    /// Is a finding for `rule` on 0-based `line0` suppressed? Marks every
    /// matching marker used (line-level first; the file-level marker only
    /// when no line-level one matches).
    pub(crate) fn allowed(&self, rule: &str, line0: usize) -> bool {
        let mut hit = false;
        for m in &self.markers {
            if m.kind == MarkerKind::Allow
                && m.arg == rule
                && (m.line0 == line0 || m.line0 + 1 == line0)
            {
                m.used.set(true);
                hit = true;
            }
        }
        if hit {
            return true;
        }
        for m in &self.markers {
            if m.kind == MarkerKind::AllowFile && m.arg == rule {
                m.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Is an atomic-ordering use on 0-based `line0` justified by a
    /// `dcart_lint::atomic(REASON)` marker with a nonempty reason? Marks
    /// matching markers used.
    pub(crate) fn atomic_justified(&self, line0: usize) -> bool {
        let mut hit = false;
        for m in &self.markers {
            if m.kind == MarkerKind::Atomic
                && !m.arg.is_empty()
                && (m.line0 == line0 || m.line0 + 1 == line0)
            {
                m.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// The crate name for `crates/<name>/...` paths.
    pub fn crate_name(&self) -> &str {
        self.path.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("")
    }

    pub(crate) fn emit(
        &self,
        out: &mut Vec<Diagnostic>,
        rule: &'static str,
        line0: usize,
        col: usize,
        msg: impl Into<String>,
        help: impl Into<String>,
    ) {
        if !self.in_test.get(line0).copied().unwrap_or(false) && !self.allowed(rule, line0) {
            out.push(Diagnostic {
                path: self.path.to_string(),
                line: line0 + 1,
                col,
                rule,
                msg: msg.into(),
                help: help.into(),
            });
        }
    }
}

fn parse_marker(comment: &str, opener: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(opener) {
        let tail = &rest[pos + opener.len()..];
        if let Some(end) = tail.find(')') {
            for id in tail[..end].split([',', ' ']).filter(|s| !s.is_empty()) {
                out.push(id.to_string());
            }
        }
        rest = &rest[pos + opener.len()..];
    }
    out
}

/// Parses `dcart_lint::atomic(REASON)` markers; the reason runs to the
/// *last* closing paren so it may itself contain parentheses.
fn parse_atomic(comment: &str) -> Vec<String> {
    let opener = "dcart_lint::atomic(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(opener) {
        let tail = &rest[pos + opener.len()..];
        if let Some(end) = tail.rfind(')') {
            out.push(tail[..end].trim().to_string());
        } else {
            out.push(String::new());
        }
        rest = &rest[pos + opener.len()..];
    }
    out
}

/// Marks lines inside `#[cfg(test)] mod ... { }` regions (brace-matched on
/// the comment/string-stripped code channel).
pub fn test_regions(lines: &[LineView]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut depth = 0usize;
    let mut pending = false;
    let mut test_depth: Option<usize> = None;
    for (i, l) in lines.iter().enumerate() {
        let stripped: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
        if stripped.contains("#[cfg(test)]") || stripped.contains("#[cfg(all(test") {
            pending = true;
        }
        if test_depth.is_some() || pending {
            out[i] = true;
        }
        for c in l.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use ...;` — the attribute gates a single
                // item with no body; stop carrying it forward.
                ';' if pending && test_depth.is_none() => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
    out
}

/// D1 — default-hasher `HashMap`/`HashSet`.
///
/// Iteration order of the std hash tables depends on a per-process random
/// SipHash seed; any such order reaching a digest, stats JSON, or the event
/// stream breaks the byte-identical-replay guarantees the reproduction is
/// built on. Use `BTreeMap`/`BTreeSet` or `dcart::fxhash` (seed-free)
/// instead; `dcart::fxhash` itself carries the file-level allow.
pub fn d1(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for (i, l) in ctx.lines.iter().enumerate() {
        for name in ["HashMap", "HashSet"] {
            for col in ident_cols(&l.code, name) {
                ctx.emit(
                    out,
                    "D1",
                    i,
                    col,
                    format!("`{name}` with the default `RandomState` has a per-process random iteration order"),
                    "use `BTreeMap`/`BTreeSet` or `dcart::fxhash::{FxHashMap, FxHashSet}`; \
                     silence a justified site with `// dcart_lint::allow(D1) -- reason`",
                );
            }
        }
    }
}

/// D2 — wall clock, OS randomness, environment reads.
///
/// The functional layer must be a pure function of (workload, seed,
/// config); time and environment may only be read by the bench timing
/// module and the CLI front-ends.
pub fn d2(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if D2_WHITELIST.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        for col in ident_cols(&l.code, "Instant") {
            if followed_by(&l.code, col - 1 + "Instant".len(), "::now") {
                ctx.emit(
                    out,
                    "D2",
                    i,
                    col,
                    "`Instant::now` reads the wall clock in the functional layer",
                    "model time with `dcart_engine::Clock` cycles, or measure host time in \
                     the `benchmark/` package",
                );
            }
        }
        for name in ["SystemTime", "thread_rng", "from_entropy"] {
            for col in ident_cols(&l.code, name) {
                ctx.emit(
                    out,
                    "D2",
                    i,
                    col,
                    format!("`{name}` injects OS nondeterminism into the functional layer"),
                    "derive randomness from the run's explicit seed (splitmix64 streams)",
                );
            }
        }
        for col in ident_cols(&l.code, "env") {
            let end = col - 1 + "env".len();
            for acc in ["::var", "::vars", "::args", "::args_os"] {
                if followed_by(&l.code, end, acc) {
                    ctx.emit(
                        out,
                        "D2",
                        i,
                        col,
                        format!("`env{acc}` makes behaviour depend on the process environment"),
                        "thread configuration through explicit config structs; only the CLI \
                         front-ends under `crates/bench/src/bin/` parse the environment",
                    );
                }
            }
        }
    }
}

/// P1 — uniform panic policy in library crates.
///
/// `unwrap()`, `panic!`, `todo!` and `unimplemented!` never belong in
/// non-test library code (return a typed `DcartError` instead).
/// `expect("...")` and `unreachable!("...")` are the sanctioned escape
/// hatch for *documented invariants* — they must carry a nonempty message
/// naming the invariant, which is what makes them auditable.
pub fn p1(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !LIB_CRATES.contains(&ctx.crate_name()) {
        return;
    }
    // The `unsafe` keyword is confined to the sanctioned kernel files.
    // This check bypasses `ctx.emit` on purpose: neither allow markers nor
    // `#[cfg(test)]` regions can silence it — widening the exception means
    // editing [`UNSAFE_SANCTIONED`] under review, not adding a comment.
    if !UNSAFE_SANCTIONED.contains(&ctx.path) {
        for (i, l) in ctx.lines.iter().enumerate() {
            for col in ident_cols(&l.code, "unsafe") {
                out.push(Diagnostic {
                    path: ctx.path.to_string(),
                    line: i + 1,
                    col,
                    rule: "P1",
                    msg: "`unsafe` outside the sanctioned SIMD kernel module".to_string(),
                    help: "unsafe code lives only in the files named by UNSAFE_SANCTIONED \
                           (crates/xtask/src/rules.rs); allow markers cannot silence this — \
                           extend that table in a reviewed change instead"
                        .to_string(),
                });
            }
        }
    }
    // Binary front-ends under `src/bin/` are the human-facing CLI surface
    // of a LIB_CRATES member: panics and prints are their error-reporting
    // strategy, exactly like the `bench` crate's binaries. The unsafe
    // confinement above still applies to them.
    if ctx.path.contains("/src/bin/") {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        for col in ident_cols(&l.code, "unwrap") {
            let end = col - 1 + "unwrap".len();
            if preceded_by(&l.code, col - 1, '.') && followed_by(&l.code, end, "()") {
                ctx.emit(
                    out,
                    "P1",
                    i,
                    col,
                    "`unwrap()` in non-test library code",
                    "return a typed error, or use `expect(\"<invariant>\")` if failure is \
                     provably unreachable",
                );
            }
        }
        for name in ["panic", "todo", "unimplemented"] {
            for col in ident_cols(&l.code, name) {
                if followed_by(&l.code, col - 1 + name.len(), "!") {
                    ctx.emit(
                        out,
                        "P1",
                        i,
                        col,
                        format!("`{name}!` in non-test library code"),
                        "return a typed error; for impossible branches use \
                         `unreachable!(\"<invariant>\")`",
                    );
                }
            }
        }
        for (name, is_macro) in [("expect", false), ("unreachable", true)] {
            for col in ident_cols(&l.code, name) {
                let end = col - 1 + name.len();
                let opener = if is_macro { "!(" } else { "(" };
                if !is_macro && !preceded_by(&l.code, col - 1, '.') {
                    continue;
                }
                if !followed_by(&l.code, end, opener) {
                    continue;
                }
                if !has_message_arg(ctx.lines, i, end) {
                    ctx.emit(
                        out,
                        "P1",
                        i,
                        col,
                        format!("`{name}` without an invariant message"),
                        "state the invariant that makes this unreachable, e.g. \
                         `expect(\"arena invariant: linked node is live\")`",
                    );
                }
            }
        }
    }
}

/// Does a nonempty string literal open the argument list that starts after
/// byte offset `end0` on line `line0` (looking one line ahead for wrapped
/// arguments)?
fn has_message_arg(lines: &[LineView], line0: usize, end0: usize) -> bool {
    let same = lines[line0].strings.iter().any(|s| s.col > end0 && !s.text.is_empty());
    if same {
        return true;
    }
    // Wrapped: `.expect(\n    "message",` — accept a nonempty literal
    // leading the next line.
    lines.get(line0 + 1).is_some_and(|l| {
        l.strings
            .first()
            .is_some_and(|s| !s.text.is_empty() && l.code[..s.col - 1].trim().is_empty())
    })
}

/// F1 — on-disk magic strings have one definition site.
///
/// Writer and recovery paths must agree on the `DCARTWAL`/`DCARTCKP`/
/// `DCARTSNP` headers; a second literal is where silent format drift
/// starts. Everyone else references the exported constant.
pub fn f1(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if F1_SKIP.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for (magic, def) in F1_MAGICS {
        if ctx.path == def {
            continue;
        }
        for (i, l) in ctx.lines.iter().enumerate() {
            for s in &l.strings {
                if s.text.contains(magic) {
                    ctx.emit(
                        out,
                        "F1",
                        i,
                        s.col,
                        format!("magic `{magic}` re-spelled outside its defining module"),
                        format!("reference the constant exported by `{def}` instead"),
                    );
                }
            }
        }
    }
}

/// O1 — no stdout/stderr prints in library crates.
///
/// Library output flows through the `Tracer` interface and the report
/// writers; a stray `println!` bypasses both and corrupts piped reports.
pub fn o1(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !LIB_CRATES.contains(&ctx.crate_name()) {
        return;
    }
    // Binaries print; that is their job (same carve-out as P1).
    if ctx.path.contains("/src/bin/") {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        for name in ["println", "eprintln", "print", "eprint", "dbg"] {
            for col in ident_cols(&l.code, name) {
                if followed_by(&l.code, col - 1 + name.len(), "!") {
                    ctx.emit(
                        out,
                        "O1",
                        i,
                        col,
                        format!("`{name}!` in a library crate"),
                        "emit through the `Tracer`/report sinks; only the bench harness prints",
                    );
                }
            }
        }
    }
}

/// Types that make a `static` process-global mutable state (G1), besides
/// every `Atomic*`.
const G1_INTERIOR: [&str; 8] =
    ["Mutex", "RwLock", "OnceLock", "OnceCell", "LazyLock", "Cell", "RefCell", "UnsafeCell"];

/// G1 — no process-global mutable state, in any workspace crate.
///
/// Configuration travels as plain data from the flag parser to the code
/// that uses it (`ExecOpts`, `Scale`). A `static mut`, or a `static`
/// holding an atomic, lock, cell or once-cell, is a hidden second channel:
/// callers pick it up silently and tests race on it (the executor's four
/// knobs and the harness's `--jobs` worker count were once such globals).
/// The one sanctioned site is the SIGINT latch in
/// `crates/server/src/signal.rs` (a signal handler has no other channel),
/// which carries an allow marker.
pub fn g1(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for (i, l) in ctx.lines.iter().enumerate() {
        for col in ident_cols(&l.code, "static") {
            // `&'static T` and `T: 'static` are lifetimes, not items.
            if preceded_by(&l.code, col - 1, '\'') {
                continue;
            }
            // The item's name and type run to its initializer or end,
            // possibly across lines.
            let mut decl = l.code[col - 1 + "static".len()..].to_string();
            for next in ctx.lines.iter().skip(i + 1).take(8) {
                if decl.contains(['=', ';']) {
                    break;
                }
                decl.push(' ');
                decl.push_str(&next.code);
            }
            let decl = decl.split(['=', ';']).next().unwrap_or_default();
            let words: Vec<&str> = decl
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            let what = if words.first() == Some(&"mut") {
                "is `static mut`".to_string()
            } else if let Some(ty) =
                words.iter().find(|w| w.starts_with("Atomic") || G1_INTERIOR.contains(w))
            {
                format!("holds `{ty}`")
            } else {
                continue;
            };
            let name = words.iter().find(|w| !matches!(**w, "mut" | "ref")).unwrap_or(&"");
            ctx.emit(
                out,
                "G1",
                i,
                col,
                format!("`static {name}` {what}: process-global mutable state"),
                "pass the value explicitly (an options struct from the flag parser down); the \
                 SIGINT latch in crates/server/src/signal.rs is the one sanctioned global — \
                 silence a justified site with `// dcart_lint::allow(G1) -- reason`",
            );
        }
    }
}

/// A1 — every `Ordering::Relaxed`/`Ordering::SeqCst` carries a written
/// justification.
///
/// Acquire/Release pairs document themselves: the pairing *is* the
/// protocol. `Relaxed` claims no synchronization is needed and `SeqCst`
/// claims the strongest order is — both are load-bearing design decisions
/// that drift silently under refactors (PR-7's packed head/tail CAS, the
/// PR-3 shard counters). The marker keeps the reasoning next to the site:
/// `// dcart_lint::atomic(monotonic stats counter, read racily by design)`.
pub fn a1(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !LIB_CRATES.contains(&ctx.crate_name()) {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        for name in ["Relaxed", "SeqCst"] {
            for col in ident_cols(&l.code, name) {
                if !l.code[..col - 1].trim_end().ends_with("Ordering::") {
                    continue;
                }
                if !ctx.atomic_justified(i) {
                    ctx.emit(
                        out,
                        "A1",
                        i,
                        col,
                        format!("`Ordering::{name}` without a written justification"),
                        "add `// dcart_lint::atomic(<why this ordering is sufficient/required>)` \
                         on this line or the line above",
                    );
                }
            }
        }
    }
}

/// Item kinds whose `pub` definitions U1 tracks.
const U1_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// U1 — every `pub` item of a library crate is referenced by some non-test
/// code of the whole program.
///
/// A `pub` item that only its own tests call is API nobody runs: it costs
/// review and upkeep and proves nothing about the paths that do run. A
/// definition site is a `pub fn|struct|enum|trait|const|static|type` in a
/// [`LIB_CRATES`] library file (binaries under `src/bin/` excluded); a
/// reference is any identifier token with the item's name in non-test
/// code. `ctxs[i]` and `toks[i]` describe the same analyzed file; `corpus`
/// holds the tokens and test-region maps of read-only code that uses the
/// libraries (`examples/`, the `benchmark/` package). Not references: the
/// definition names themselves, `use` / `pub use` declarations,
/// `#[cfg(test)]` regions, and a type's name inside its own `impl` block
/// (header and body), so `impl Default for T { .. T::new() .. }` does not
/// keep `T` alive. Matching is by name, so a false hit hides a dead item
/// but never flags a live one.
pub fn u1(
    ctxs: &[FileCtx],
    toks: &[&[Tok]],
    corpus: &[(Vec<Tok>, Vec<bool>)],
    out: &mut Vec<Diagnostic>,
) {
    let mut refs: BTreeSet<&str> = BTreeSet::new();
    let mut defs: Vec<(usize, usize, usize)> = Vec::new();
    for (fi, (ctx, &toks)) in ctxs.iter().zip(toks).enumerate() {
        let lib = LIB_CRATES.contains(&ctx.crate_name()) && !ctx.path.contains("/src/bin/");
        let found = u1_walk(toks, &ctx.in_test, &mut refs);
        if lib {
            defs.extend(found.into_iter().map(|(pub_tok, name_tok)| (fi, pub_tok, name_tok)));
        }
    }
    for (toks, in_test) in corpus {
        u1_walk(toks, in_test, &mut refs);
    }
    for (fi, pub_tok, name_tok) in defs {
        let (kind, name) = (&toks[fi][name_tok - 1].text, &toks[fi][name_tok].text);
        if refs.contains(name.as_str()) {
            continue;
        }
        let at = &toks[fi][pub_tok];
        ctxs[fi].emit(
            out,
            "U1",
            at.line - 1,
            at.col,
            format!("`pub {kind} {name}` is referenced by no non-test code of the program"),
            "delete it together with the tests that exist only for it; a reference or oracle \
             that tests compare production code against keeps \
             `// dcart_lint::allow(U1) -- reason`",
        );
    }
}

/// Records one file's non-test references in `refs` and returns the token
/// indices of every `pub` item definition: its `pub` and its name.
fn u1_walk<'t>(
    toks: &'t [Tok],
    in_test: &[bool],
    refs: &mut BTreeSet<&'t str>,
) -> Vec<(usize, usize)> {
    let impls = impl_blocks(toks);
    let in_own_impl =
        |i: usize, name: &str| impls.iter().any(|&(s, e, ty)| s <= i && i <= e && ty == name);
    let mut pubs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if !t.is_ident || in_test.get(t.line - 1).copied().unwrap_or(false) {
            i += 1;
        } else if t.text == "use" {
            // A `use` / `pub use` names an item; it does not use it.
            while toks.get(i).is_some_and(|t| t.text != ";") {
                i += 1;
            }
        } else if let Some(name) = def_name(toks, i) {
            i = name + 1;
        } else if let Some(name) = (t.text == "pub").then(|| def_name(toks, i + 1)).flatten() {
            if toks[name - 1].text != "mod" {
                pubs.push((i, name));
            }
            i = name + 1;
        } else {
            if !in_own_impl(i, &t.text) {
                refs.insert(&t.text);
            }
            i += 1;
        }
    }
    pubs
}

/// Every `impl` block of `toks` as `(impl token, closing brace, self type)`.
/// The self type is the last top-level identifier of the header after any
/// `for` (`impl<E> Default for EventQueue<E>` → `EventQueue`). Only an
/// `impl` in item position opens a block; `-> impl Trait` does not.
fn impl_blocks(toks: &[Tok]) -> Vec<(usize, usize, &str)> {
    let mut blocks = Vec::new();
    for i in 0..toks.len() {
        let item_position =
            i == 0 || matches!(toks[i - 1].text.as_str(), "}" | ";" | "]" | "{" | "unsafe");
        if toks[i].text != "impl" || !item_position {
            continue;
        }
        let (mut angle, mut in_where, mut self_ty) = (0i32, false, None);
        let mut j = i + 1;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" if angle == 0 => break,
                "where" if angle == 0 => in_where = true,
                "for" if angle == 0 && !in_where => self_ty = None,
                _ if angle == 0 && !in_where && t.is_ident => self_ty = Some(t.text.as_str()),
                _ => {}
            }
            j += 1;
        }
        let mut depth = 0usize;
        let close = (j..toks.len()).find(|&k| {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            depth == 0
        });
        if let (Some(ty), Some(close)) = (self_ty, close) {
            blocks.push((i, close, ty));
        }
    }
    blocks
}

/// If an item definition (`fn`, `struct`, ..., `mod`, possibly after
/// `const`/`unsafe`/`async`) starts at `toks[i]`, the index of its name.
fn def_name(toks: &[Tok], mut i: usize) -> Option<usize> {
    let qualifier = |t: &Tok| matches!(t.text.as_str(), "fn" | "unsafe" | "async");
    while matches!(toks.get(i)?.text.as_str(), "unsafe" | "async")
        || (toks[i].text == "const" && toks.get(i + 1).is_some_and(qualifier))
    {
        i += 1;
    }
    let kind = toks[i].text.as_str();
    let defines = U1_KINDS.contains(&kind) || kind == "mod";
    (defines && toks.get(i + 1)?.is_ident).then_some(i + 1)
}

/// S1 — stale suppressions.
///
/// Run after every other active rule so marker usage is final. A marker
/// whose rule never fired on its span is dead weight that silently
/// re-licenses future violations; it must be deleted (or the rule ID fixed,
/// for markers naming an unknown rule). `active` lists the rule IDs this
/// invocation actually ran — markers for rules that were *not* run are
/// left alone, so `xtask lint` never flags the flow-rule markers it cannot
/// check.
pub fn s1(ctx: &FileCtx, active: &[&str], out: &mut Vec<Diagnostic>) {
    // Two passes so `allow(S1)` markers get their usage recorded by pass 1
    // emissions before pass 2 judges them.
    for pass in 0..2 {
        for m in &ctx.markers {
            let is_s1_allow = m.kind != MarkerKind::Atomic && m.arg == "S1";
            if (pass == 0) == is_s1_allow || m.used.get() {
                continue;
            }
            if ctx.in_test.get(m.line0).copied().unwrap_or(false) {
                continue;
            }
            match m.kind {
                MarkerKind::Atomic => {
                    if !active.contains(&"A1") {
                        continue;
                    }
                    if m.arg.is_empty() {
                        ctx.emit(
                            out,
                            "S1",
                            m.line0,
                            1,
                            "`dcart_lint::atomic()` marker with an empty reason",
                            "write the justification inside the parentheses: \
                             `// dcart_lint::atomic(<why this ordering suffices>)`",
                        );
                    } else {
                        ctx.emit(
                            out,
                            "S1",
                            m.line0,
                            1,
                            "stale `dcart_lint::atomic(..)` marker: no `Ordering::Relaxed`/\
                             `SeqCst` on the marked line"
                                .to_string(),
                            "delete the marker (the ordering it justified is gone), or move it \
                             next to the atomic operation it describes",
                        );
                    }
                }
                MarkerKind::Allow | MarkerKind::AllowFile => {
                    if !RULE_IDS.contains(&m.arg.as_str()) {
                        ctx.emit(
                            out,
                            "S1",
                            m.line0,
                            1,
                            format!("marker names unknown rule `{}`", m.arg),
                            format!("known rule IDs: {}", RULE_IDS.join(" ")),
                        );
                    } else if active.contains(&m.arg.as_str()) {
                        let scope = if m.kind == MarkerKind::AllowFile { "file" } else { "span" };
                        ctx.emit(
                            out,
                            "S1",
                            m.line0,
                            1,
                            format!(
                                "stale suppression: `{}` no longer fires on this {scope}",
                                m.arg
                            ),
                            "delete the marker — a suppression that silences nothing will \
                             silently re-license the next real violation",
                        );
                    }
                }
            }
        }
    }
}
