//! Flow-aware rules: O2 protocol-order automata and C1 lock discipline.
//!
//! Both rules walk the [`crate::parse::FlowNode`] trees produced by the
//! item parser. Branches (`if`/`else`, `match` arms) are explored as
//! alternatives and merged; loop bodies are checked as a fresh iteration
//! (the protocol sequence legitimately restarts every time around a
//! serving loop). Everything is conservative name matching — no type
//! information exists — so the matchers are written to be unambiguous in
//! this codebase (`writer.commit`, `Response::ok`, ...).

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::Graph;
use crate::parse::{CallExpr, FlowNode, ParsedFile};
use crate::rules::{Diagnostic, FileCtx, LIB_CRATES};

/// How a protocol stage recognizes its call sites.
enum Matcher {
    /// Callee name is one of these (any receiver).
    Callee(&'static [&'static str]),
    /// Callee name with this exact last receiver identifier
    /// (`writer.commit(..)`, `self.shutdown.store(..)`).
    CalleeRecvLast(&'static str, &'static str),
    /// Callee name with this `::`-path qualifier (`Response::ok`).
    CalleeQual(&'static str, &'static str),
    /// Any of these (one stage reached through differently shaped calls).
    Any(&'static [Matcher]),
}

impl Matcher {
    fn hits(&self, c: &CallExpr) -> bool {
        match self {
            Matcher::Callee(names) => names.contains(&c.callee.as_str()),
            Matcher::CalleeRecvLast(name, recv) => {
                c.callee == *name && c.recv.last().map(String::as_str) == Some(recv)
            }
            Matcher::CalleeQual(name, qual) => {
                c.callee == *name && c.path.last().map(String::as_str) == Some(qual)
            }
            Matcher::Any(matchers) => matchers.iter().any(|m| m.hits(c)),
        }
    }
}

struct Stage {
    desc: &'static str,
    m: Matcher,
}

struct Automaton {
    name: &'static str,
    /// Exact workspace-relative paths the automaton is checked in.
    files: &'static [&'static str],
    stages: &'static [Stage],
    /// Every stage is required: on no path may a stage be reached while
    /// the one before it is missing (a dropped step, not only a
    /// reordered one, is the bug).
    complete: bool,
}

/// The protocol automata. Stage numbers are 1-based positions in `stages`;
/// on any path through a function, a lower-numbered event must never
/// follow a higher-numbered one — and, for a `complete` automaton, a stage
/// must never be reached past a missing one.
static AUTOMATA: [Automaton; 3] = [
    // PR-8's durability contract: nothing is acknowledged before it is
    // WAL-appended, executed, and fsync-committed. The append and the mark
    // are the durable log's (`dcart::DurableLog`): `writer.append_batch`
    // and `writer.commit` inside it, `log.append` and `log.commit` where
    // the server's core loop and `run_durable` drive it. The fsync is the
    // mark's where `run_durable` syncs it inline, and `commit_sync()` in
    // the committer's round, `sync_and_answer`, wherever the server runs
    // it; the acknowledgement is `Response::ok` or a call that carries the
    // batch to it — the loop's call of `sync_and_answer` on its own thread
    // (under `flush_now` and without a WAL), or its `commits.hand_over` to
    // the committer's lane, which may sync and answer from the moment it
    // has the batch. No function is named `acknowledge` any more; the name
    // stays matched, so that one added under it is a stage from the start.
    // The checkpoint lane's `hand_over` carries a job, not a batch, and is
    // no stage.
    Automaton {
        name: "durable-ack",
        files: &["crates/server/src/core_loop.rs", "crates/core/src/durable.rs"],
        stages: &[
            Stage {
                desc: "WAL append",
                m: Matcher::Any(&[
                    Matcher::Callee(&["append_batch"]),
                    Matcher::CalleeRecvLast("append", "log"),
                ]),
            },
            Stage { desc: "execute", m: Matcher::Callee(&["execute_batch", "execute_all"]) },
            Stage {
                desc: "fsync commit",
                m: Matcher::Any(&[
                    Matcher::CalleeRecvLast("commit", "writer"),
                    Matcher::CalleeRecvLast("commit", "log"),
                    Matcher::Callee(&["commit_sync"]),
                ]),
            },
            Stage {
                desc: "acknowledge",
                m: Matcher::Any(&[
                    Matcher::CalleeQual("ok", "Response"),
                    Matcher::Callee(&["acknowledge", "sync_and_answer"]),
                    Matcher::CalleeRecvLast("hand_over", "commits"),
                ]),
            },
        ],
        complete: false,
    },
    // PR-4's checkpoint install: the checkpoint file must be durably in
    // place (tmp → fsync → atomic rename → directory fsync) before the WAL
    // (segment) it absorbs is reset — resetting first would leave a crash
    // window with neither artifact, and a rename whose directory entry is
    // not synced can be lost by a power cut that keeps the reset. The
    // first stage is the rename itself or a call that carries the whole
    // install (the checkpoint job's `checkpoint.run`, in the durable log's
    // `CheckpointJob` and in the server's `run_job`). Complete: the install
    // function reads rename → directory sync → reset, and dropping the
    // directory sync is the bug as much as moving it.
    Automaton {
        name: "checkpoint-install",
        files: &["crates/server/src/core_loop.rs", "crates/core/src/durable.rs"],
        stages: &[
            Stage {
                desc: "checkpoint rename",
                m: Matcher::Any(&[
                    Matcher::CalleeQual("rename", "fs"),
                    Matcher::Callee(&["install_checkpoint", "write_checkpoint"]),
                    Matcher::CalleeRecvLast("run", "checkpoint"),
                ]),
            },
            Stage { desc: "directory sync", m: Matcher::Callee(&["sync_dir"]) },
            Stage {
                desc: "WAL reset",
                m: Matcher::Any(&[
                    Matcher::CalleeRecvLast("reset", "writer"),
                    Matcher::CalleeRecvLast("reset", "retired"),
                ]),
            },
        ],
        complete: true,
    },
    // PR-8's drain sequence: admission bounces first, then the shutdown
    // flag publishes, then sleeping workers wake — waking before the flag
    // is set would park them again and stall the drain.
    Automaton {
        name: "drain",
        files: &["crates/server/src/core_loop.rs"],
        stages: &[
            Stage { desc: "admission drain", m: Matcher::Callee(&["start_drain"]) },
            Stage { desc: "shutdown flag", m: Matcher::CalleeRecvLast("store", "shutdown") },
            Stage { desc: "wake workers", m: Matcher::Callee(&["notify_all"]) },
        ],
        complete: false,
    },
];

/// The running automaton state: the highest stage witnessed so far, and —
/// for a `complete` automaton — the first stage a path went past without
/// witnessing it.
#[derive(Clone, Copy, Default)]
struct O2State {
    stage: usize, // 1-based; 0 = nothing seen
    line: usize,
    desc: &'static str,
    skipped: Option<Skip>,
}

/// A stage reached while an earlier one was missing: reported when the
/// function ends, unless the missing stage turns up later on the path
/// (which is then an order violation, reported as one).
#[derive(Clone, Copy)]
struct Skip {
    missing: usize,
    /// Where the stage past it was reached (0-based line, column).
    line0: usize,
    col: usize,
    reached: &'static str,
    reached_stage: usize,
}

/// O2 — protocol call-order automata.
///
/// `ctxs[i]` and `files[i]` describe the same file.
pub fn o2(ctxs: &[FileCtx], files: &[(String, ParsedFile, Vec<bool>)], out: &mut Vec<Diagnostic>) {
    for (fi, (path, parsed, _)) in files.iter().enumerate() {
        for auto in &AUTOMATA {
            if !auto.files.contains(&path.as_str()) {
                continue;
            }
            for f in &parsed.fns {
                let end = o2_walk(auto, &f.body, O2State::default(), &ctxs[fi], out);
                if let Some(skip) = end.skipped {
                    let missing = auto.stages[skip.missing - 1].desc;
                    ctxs[fi].emit(
                        out,
                        "O2",
                        skip.line0,
                        skip.col,
                        format!(
                            "protocol `{}`: {} (stage {}) reached without {missing} (stage {})",
                            auto.name, skip.reached, skip.reached_stage, skip.missing
                        ),
                        format!(
                            "the `{}` sequence is {}, every stage of it required; restore the \
                             missing stage",
                            auto.name,
                            auto.stages.iter().map(|s| s.desc).collect::<Vec<_>>().join(" -> ")
                        ),
                    );
                }
            }
        }
    }
}

fn stage_of(auto: &Automaton, c: &CallExpr) -> Option<(usize, &'static str)> {
    auto.stages.iter().position(|s| s.m.hits(c)).map(|i| (i + 1, auto.stages[i].desc))
}

fn o2_walk(
    auto: &Automaton,
    nodes: &[FlowNode],
    mut st: O2State,
    ctx: &FileCtx,
    out: &mut Vec<Diagnostic>,
) -> O2State {
    for n in nodes {
        match n {
            FlowNode::Stmt(s) => {
                for c in &s.calls {
                    let Some((k, desc)) = stage_of(auto, c) else { continue };
                    if k < st.stage {
                        if st.skipped.is_some_and(|skip| skip.missing == k) {
                            st.skipped = None;
                        }
                        ctx.emit(
                            out,
                            "O2",
                            c.line - 1,
                            c.col,
                            format!(
                                "protocol `{}`: {desc} (stage {k}) reached after {} \
                                 (stage {}) at line {}",
                                auto.name, st.desc, st.stage, st.line
                            ),
                            format!(
                                "the `{}` sequence is {}; reorder so every path runs the \
                                 stages in ascending order",
                                auto.name,
                                auto.stages.iter().map(|s| s.desc).collect::<Vec<_>>().join(" -> ")
                            ),
                        );
                    } else {
                        if auto.complete && k > st.stage + 1 && st.skipped.is_none() {
                            st.skipped = Some(Skip {
                                missing: st.stage + 1,
                                line0: c.line - 1,
                                col: c.col,
                                reached: desc,
                                reached_stage: k,
                            });
                        }
                        st = O2State { stage: k, line: c.line, desc, skipped: st.skipped };
                    }
                }
            }
            FlowNode::Alt(branches) => {
                let mut merged = st;
                for b in branches {
                    let end = o2_walk(auto, b, st, ctx, out);
                    let skipped = merged.skipped.or(end.skipped);
                    if end.stage > merged.stage {
                        merged = end;
                    }
                    merged.skipped = skipped;
                }
                st = merged;
            }
            FlowNode::Block(b) => {
                st = o2_walk(auto, b, st, ctx, out);
            }
            FlowNode::Loop(b) => {
                // Each iteration restarts the protocol (a serving loop runs
                // the full sequence per batch), so the body is checked from
                // a fresh state; the loop's last iteration still
                // contributes its end state to what follows.
                let end = o2_walk(auto, b, O2State::default(), ctx, out);
                let skipped = st.skipped.or(end.skipped);
                if end.stage > st.stage {
                    st = end;
                }
                st.skipped = skipped;
            }
        }
    }
    st
}

/// Method names that merely unwrap a `LockResult` without releasing the
/// guard: a `let g = x.lock().unwrap_or_else(|e| e.into_inner());`
/// statement still binds the guard. Any *other* call chained in the same
/// statement consumes the guard, which then drops at the statement's end.
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "into_inner"];

/// Callee names that acquire a lock.
const LOCK_CALLEES: [&str; 2] = ["lock", "try_lock"];

/// A held lock during the C1 walk.
#[derive(Clone)]
struct Hold {
    id: String,
    binding: Option<String>,
    line: usize,
}

/// A lock-order edge: while holding `from`, `to` was acquired.
type EdgeMap = BTreeMap<(String, String), (usize, usize, usize)>; // -> (file, line, col)

/// C1 — lock discipline over the acquisition graph.
///
/// Walks every non-test function in [`LIB_CRATES`] (binaries included: the
/// client harness threads lock too). A lock is identified by
/// `crate/receiver` (`server/admission`, `engine/cells`); acquiring a lock
/// already in the held set — directly or through any resolvable callee —
/// is a double-acquire error, and the global acquisition-order graph must
/// stay acyclic.
pub fn c1(
    ctxs: &[FileCtx],
    files: &[(String, ParsedFile, Vec<bool>)],
    graph: &Graph,
    out: &mut Vec<Diagnostic>,
) {
    // Direct acquisitions per graph fn, then the transitive closure.
    let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.fns.len()];
    for (i, f) in graph.fns.iter().enumerate() {
        if !in_scope(f.path) {
            continue;
        }
        let mut calls = Vec::new();
        Graph::calls_in(&f.item.body, &mut calls);
        for c in calls {
            if let Some(id) = lock_id(f.path, c) {
                direct[i].insert(id);
            }
        }
    }
    let closure = graph.transitive_closure(&direct);

    let mut edges: EdgeMap = BTreeMap::new();
    for f in graph.fns.iter() {
        if !in_scope(f.path) {
            continue;
        }
        let cx = C1Cx { ctx: &ctxs[f.file], file: f.file, path: f.path, graph, closure: &closure };
        c1_walk(&f.item.body, &mut Vec::new(), &cx, &mut edges, out);
    }

    // Acquisition-order cycles: SCCs of the edge graph with more than one
    // node (self-edges were already reported as double-acquires).
    for cycle in cycles(&edges) {
        // Anchor the diagnostic at the lexicographically-first edge inside
        // the cycle.
        let mut site: Option<(usize, usize, usize)> = None;
        for ((from, to), s) in &edges {
            if cycle.contains(from) && cycle.contains(to) {
                let better = match site {
                    None => true,
                    Some(cur) => {
                        (files[s.0].0.as_str(), s.1, s.2) < (files[cur.0].0.as_str(), cur.1, cur.2)
                    }
                };
                if better {
                    site = Some(*s);
                }
            }
        }
        let Some((fi, line, col)) = site else { continue };
        let order: Vec<&str> = cycle.iter().map(String::as_str).collect();
        ctxs[fi].emit(
            out,
            "C1",
            line - 1,
            col,
            format!("lock acquisition-order cycle between {{{}}}", order.join(", ")),
            "pick one global order for these locks and acquire them in it on every path \
             (the cycle means two paths disagree, which deadlocks under contention)",
        );
    }
}

fn in_scope(path: &str) -> bool {
    let crate_name = path.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("");
    LIB_CRATES.contains(&crate_name)
}

/// `crate/receiver` id for a lock acquisition, if the call is one.
fn lock_id(path: &str, c: &CallExpr) -> Option<String> {
    if !LOCK_CALLEES.contains(&c.callee.as_str()) {
        return None;
    }
    let recv = c.recv.last()?;
    let crate_name = path.strip_prefix("crates/").and_then(|r| r.split('/').next())?;
    Some(format!("{crate_name}/{recv}"))
}

struct C1Cx<'a> {
    ctx: &'a FileCtx<'a>,
    file: usize,
    path: &'a str,
    graph: &'a Graph<'a>,
    closure: &'a [BTreeSet<String>],
}

fn c1_walk(
    nodes: &[FlowNode],
    held: &mut Vec<Hold>,
    cx: &C1Cx,
    edges: &mut EdgeMap,
    out: &mut Vec<Diagnostic>,
) {
    for n in nodes {
        match n {
            FlowNode::Stmt(s) => {
                let mut stmt_temp: Vec<String> = Vec::new();
                for (ci, c) in s.calls.iter().enumerate() {
                    if let Some(id) = lock_id(cx.path, c) {
                        for h in held.iter() {
                            if h.id == id {
                                cx.ctx.emit(
                                    out,
                                    "C1",
                                    c.line - 1,
                                    c.col,
                                    format!(
                                        "lock `{id}` acquired while already held \
                                         (first taken at line {})",
                                        h.line
                                    ),
                                    "a second acquisition of a non-reentrant mutex on the same \
                                     path self-deadlocks; drop the guard first or pass it down",
                                );
                            } else {
                                edges
                                    .entry((h.id.clone(), id.clone()))
                                    .or_insert((cx.file, c.line, c.col));
                            }
                        }
                        // Guard lifetime: a `let`-bound lock whose trailing
                        // chain is only LockResult adapters stays held to
                        // the end of the enclosing block; anything else
                        // releases at the statement's end.
                        let consumed = s.calls[ci + 1..]
                            .iter()
                            .any(|later| !GUARD_ADAPTERS.contains(&later.callee.as_str()));
                        let bound = !s.lets.is_empty() && !consumed;
                        held.push(Hold {
                            id: id.clone(),
                            binding: bound.then(|| s.lets[0].clone()),
                            line: c.line,
                        });
                        if !bound {
                            stmt_temp.push(id);
                        }
                    } else if c.callee == "drop" {
                        if let Some(arg) = &c.first_arg {
                            if let Some(pos) =
                                held.iter().position(|h| h.binding.as_deref() == Some(arg))
                            {
                                held.remove(pos);
                            }
                        }
                    } else if !held.is_empty() {
                        // A call made while holding locks: fold in the
                        // callee's transitive acquisitions.
                        for target in cx.graph.resolve(c) {
                            for lid in &cx.closure[target] {
                                for h in held.iter() {
                                    if &h.id == lid {
                                        cx.ctx.emit(
                                            out,
                                            "C1",
                                            c.line - 1,
                                            c.col,
                                            format!(
                                                "call to `{}` re-acquires lock `{lid}` already \
                                                 held here (taken at line {})",
                                                c.callee, h.line
                                            ),
                                            "the callee (or something it calls) locks a mutex \
                                             this path already holds — self-deadlock under \
                                             contention; release before calling or split the \
                                             callee",
                                        );
                                    } else {
                                        edges
                                            .entry((h.id.clone(), lid.clone()))
                                            .or_insert((cx.file, c.line, c.col));
                                    }
                                }
                            }
                        }
                    }
                }
                // Statement end: unbound guards drop.
                for id in stmt_temp {
                    if let Some(pos) = held.iter().rposition(|h| h.id == id && h.binding.is_none())
                    {
                        held.remove(pos);
                    }
                }
            }
            FlowNode::Alt(branches) => {
                for b in branches {
                    let mut scoped = held.clone();
                    c1_walk(b, &mut scoped, cx, edges, out);
                }
            }
            FlowNode::Block(b) | FlowNode::Loop(b) => {
                let mut scoped = held.clone();
                c1_walk(b, &mut scoped, cx, edges, out);
            }
        }
    }
}

/// Strongly connected components with more than one node, as sorted lock
/// id sets (deduplicated and deterministic).
fn cycles(edges: &EdgeMap) -> Vec<BTreeSet<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().insert(to);
        nodes.insert(from);
        nodes.insert(to);
    }
    // Kosaraju: order by finish time on the forward graph, then collect
    // components on the reverse graph.
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if seen.contains(n) {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack: Vec<(&str, bool)> = vec![(n, false)];
        while let Some((v, done)) = stack.pop() {
            if done {
                order.push(v);
                continue;
            }
            if !seen.insert(v) {
                continue;
            }
            stack.push((v, true));
            if let Some(next) = adj.get(v) {
                for &w in next {
                    if !seen.contains(w) {
                        stack.push((w, false));
                    }
                }
            }
        }
    }
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        radj.entry(to).or_default().insert(from);
    }
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut comps: Vec<BTreeSet<String>> = Vec::new();
    for &n in order.iter().rev() {
        if comp.contains_key(n) {
            continue;
        }
        let id = comps.len();
        let mut members = BTreeSet::new();
        let mut stack = vec![n];
        while let Some(v) = stack.pop() {
            if comp.contains_key(v) {
                continue;
            }
            comp.insert(v, id);
            members.insert(v.to_string());
            if let Some(prev) = radj.get(v) {
                for &w in prev {
                    if !comp.contains_key(w) {
                        stack.push(w);
                    }
                }
            }
        }
        comps.push(members);
    }
    comps.retain(|c| c.len() > 1);
    comps
}
