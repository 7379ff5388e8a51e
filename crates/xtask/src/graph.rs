//! Workspace symbol table and conservative call graph.
//!
//! Resolution is name-based and deliberately over-approximate: a call site
//! resolves to *every* workspace function it could plausibly name. That is
//! the right polarity for the flow rules — C1's transitive lock closure
//! must not miss an acquisition because resolution was too clever. The
//! filters that do apply are sound ones:
//!
//! * `Type::name(...)` only resolves to functions in an `impl Type`/
//!   `trait Type` block (when the final path segment is capitalized);
//! * `recv.name(...)` method calls only resolve to functions that live in
//!   some `impl`/`trait` block (free functions cannot be methods);
//! * functions defined inside `#[cfg(test)]` regions are not in the graph
//!   at all (test helpers lock freely and never run in production paths).

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{CallExpr, FlowNode, ParsedFile};

/// One function in the workspace graph.
pub struct FnNode<'a> {
    /// Index of the owning file in the driver's file list.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub path: &'a str,
    /// The parsed item.
    pub item: &'a crate::parse::FnItem,
}

/// The workspace symbol table + call graph.
pub struct Graph<'a> {
    /// All non-test functions.
    pub fns: Vec<FnNode<'a>>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Graph<'a> {
    /// Builds the graph over `(path, parsed, in_test)` per file, where
    /// `in_test[line0]` marks `#[cfg(test)]` lines.
    pub fn build(files: &'a [(String, ParsedFile, Vec<bool>)]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, (path, parsed, in_test)) in files.iter().enumerate() {
            for item in &parsed.fns {
                if in_test.get(item.line - 1).copied().unwrap_or(false) {
                    continue;
                }
                by_name.entry(item.name.as_str()).or_default().push(fns.len());
                fns.push(FnNode { file: fi, path, item });
            }
        }
        Graph { fns, by_name }
    }

    /// All functions a call expression could name.
    pub fn resolve(&self, call: &CallExpr) -> Vec<usize> {
        let Some(cands) = self.by_name.get(call.callee.as_str()) else {
            return Vec::new();
        };
        let type_qual = call
            .path
            .last()
            .filter(|s| s.chars().next().is_some_and(char::is_uppercase))
            .map(String::as_str);
        cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.fns[i];
                if let Some(q) = type_qual {
                    f.item.qual.as_deref() == Some(q)
                } else {
                    // A method call names a method; a bare call
                    // (`drop(guard)`, `run_job(..)`) a free function, never
                    // a method that happens to share its name.
                    f.item.qual.is_some() == (!call.recv.is_empty() || call.chained)
                }
            })
            .collect()
    }

    /// Every call expression in a flow tree, in source order.
    pub fn calls_in(nodes: &'a [FlowNode], out: &mut Vec<&'a CallExpr>) {
        for n in nodes {
            match n {
                FlowNode::Stmt(s) => out.extend(s.calls.iter()),
                FlowNode::Alt(bs) => bs.iter().for_each(|b| Self::calls_in(b, out)),
                FlowNode::Block(b) | FlowNode::Loop(b) => Self::calls_in(b, out),
            }
        }
    }

    /// The set of lock ids each function acquires, directly or through any
    /// resolvable callee (fixpoint over the call graph). `direct` gives
    /// each function's own acquisitions.
    pub fn transitive_closure(&self, direct: &[BTreeSet<String>]) -> Vec<BTreeSet<String>> {
        let mut closure: Vec<BTreeSet<String>> = direct.to_vec();
        // Edges: fn -> resolvable callees.
        let mut callees: Vec<BTreeSet<usize>> = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let mut calls = Vec::new();
            Self::calls_in(&f.item.body, &mut calls);
            let mut out = BTreeSet::new();
            for c in calls {
                out.extend(self.resolve(c));
            }
            callees.push(out);
        }
        // Fixpoint: propagate until stable (the graph is small; cycles are
        // handled by monotone set growth).
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: Vec<String> = Vec::new();
                for &j in &callees[i] {
                    for l in &closure[j] {
                        if !closure[i].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    closure[i].extend(add);
                    changed = true;
                }
            }
            if !changed {
                return closure;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parse::{parse, tokenize};

    fn file(path: &str, src: &str) -> (String, ParsedFile, Vec<bool>) {
        let lines = scan(src);
        let parsed = parse(&tokenize(&lines));
        let in_test = vec![false; lines.len()];
        (path.to_string(), parsed, in_test)
    }

    #[test]
    fn resolution_respects_type_qualifiers_and_method_position() {
        let files = vec![file(
            "crates/core/src/x.rs",
            "impl Writer { fn commit(&self) {} }\n\
             impl Reader { fn commit(&self) {} }\n\
             fn commit() {}\n\
             fn caller(w: &Writer) { Writer::commit(w); w.commit(); commit(); }\n",
        )];
        let g = Graph::build(&files);
        let mut calls = Vec::new();
        let caller = g.fns.iter().find(|f| f.item.name == "caller").expect("caller in graph");
        Graph::calls_in(&caller.item.body, &mut calls);
        // Path-qualified: exactly the Writer impl.
        let r0 = g.resolve(calls[0]);
        assert_eq!(r0.len(), 1);
        assert_eq!(g.fns[r0[0]].item.qual.as_deref(), Some("Writer"));
        // Method call: both impls, not the free fn.
        let r1 = g.resolve(calls[1]);
        assert_eq!(r1.len(), 2);
        assert!(r1.iter().all(|&i| g.fns[i].item.qual.is_some()));
        // Plain call: the free fn only — Rust has no bare-name method call,
        // and a `drop(guard)` must not reach every `Drop::drop` impl.
        let r2 = g.resolve(calls[2]);
        assert_eq!(r2.len(), 1);
        assert_eq!(g.fns[r2[0]].item.qual, None);
    }

    #[test]
    fn transitive_lock_closure_reaches_through_calls() {
        let files = vec![file(
            "crates/engine/src/x.rs",
            "fn leaf() { inner.lock(); }\nfn mid() { leaf(); }\nfn top() { mid(); }\n",
        )];
        let g = Graph::build(&files);
        let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); g.fns.len()];
        for (i, f) in g.fns.iter().enumerate() {
            let mut calls = Vec::new();
            Graph::calls_in(&f.item.body, &mut calls);
            for c in calls {
                if c.callee == "lock" {
                    direct[i].insert("engine/inner".to_string());
                }
            }
        }
        let closure = g.transitive_closure(&direct);
        for (locks, f) in closure.iter().zip(&g.fns) {
            assert!(locks.contains("engine/inner"), "{} should reach the lock", f.item.name);
        }
    }

    #[test]
    fn test_region_fns_are_excluded() {
        let src = "fn real() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n";
        let lines = scan(src);
        let parsed = parse(&tokenize(&lines));
        let in_test = crate::rules::test_regions(&lines);
        let files = vec![("crates/core/src/x.rs".to_string(), parsed, in_test)];
        let g = Graph::build(&files);
        assert!(g.fns.iter().any(|f| f.item.name == "real"));
        assert!(!g.fns.iter().any(|f| f.item.name == "helper"));
    }
}
