//! Mutation self-test: proves the flow rules catch the *real* regressions
//! they were built for, on the *real* source files they guard. Each case
//! takes the production source (clean by construction — the workspace
//! gate pins that), applies the exact mutation the rule exists to stop,
//! and asserts the rule fires. A rule that passes the fixture tests but
//! has drifted off the production code's shape fails here.

use std::path::Path;

fn read_real(rel: &str) -> String {
    // CARGO_MANIFEST_DIR is crates/xtask; the workspace root is two up.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
    xtask::analyze_source(path, source).into_iter().map(|d| d.rule).collect()
}

/// Swaps the text of two non-overlapping anchored regions. Each region
/// starts at its anchor line and runs to the start of `end` (exclusive).
fn swap_regions(source: &str, first: &str, second: &str, end: &str) -> String {
    let a = source.find(first).expect("first anchor present");
    let b = source.find(second).expect("second anchor present");
    let e = source.find(end).expect("end anchor present");
    assert!(a < b && b < e, "anchors must be ordered: {a} < {b} < {e}");
    format!("{}{}{}{}", &source[..a], &source[b..e], &source[a..b], &source[e..])
}

#[test]
fn ack_before_fsync_reorder_is_caught_by_o2() {
    let path = "crates/server/src/core_loop.rs";
    let source = read_real(path);
    assert!(
        rules_fired(path, &source).is_empty(),
        "the production core loop must analyze clean before mutation"
    );

    // The mutation: move the acknowledge block (stage 4) in front of the
    // commit+fsync block (stage 3) — the durability bug the protocol
    // ordering exists to prevent. The stage comments and the checkpoint
    // check that follows stage 4 are load-bearing anchors; if they are
    // renamed, this test must be updated with them.
    let mutated = swap_regions(
        &source,
        "        // 3. Commit",
        "        // 4. Acknowledge.",
        "        let every = self.config.checkpoint_every;",
    );
    let fired = rules_fired(path, &mutated);
    assert!(fired.contains(&"O2"), "O2 must catch the ack-before-fsync reorder; fired: {fired:?}");
}

#[test]
fn ack_before_the_sync_in_the_committer_is_caught_by_o2() {
    let path = "crates/server/src/core_loop.rs";
    let source = read_real(path);

    // The mutation: in the committer's body, release the taken batches'
    // answers first and call the sync afterwards — the same durability
    // bug as above, on the pipelined commit path.
    let mutated =
        swap_regions(&source, "    // The sync.", "    // The answers.", "    for h in taken {");
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2" && d.msg.contains("fsync commit (stage 3)")),
        "O2 must catch the committer answering before its sync; got: {diags:?}"
    );
}

#[test]
fn hand_over_before_the_commit_mark_is_caught_by_o2() {
    let path = "crates/server/src/core_loop.rs";
    let source = read_real(path);

    // The mutation: the loop hands the batch to the committer — which may
    // sync and answer it from that moment on — before the batch's commit
    // mark is written, so the sync that releases it need not cover it.
    let anchor = "        // 3. Commit";
    let early =
        "        if let Some(commits) = commits {\n            commits.hand_over(handed);\n        }\n";
    assert!(source.contains(anchor), "stage anchor present");
    let mutated = source.replacen(anchor, &format!("{early}{anchor}"), 1);
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2" && d.msg.contains("fsync commit (stage 3)")),
        "O2 must catch the hand-over before the commit mark; got: {diags:?}"
    );
}

#[test]
fn lock_order_inversion_is_caught_by_c1() {
    let path = "crates/server/src/core_loop.rs";
    let source = read_real(path);

    // The production file establishes inbox -> snapshot (stats() reads
    // the admission counters under the inbox guard, then locks the
    // snapshot). Appending a path that locks them in the opposite order
    // creates the classic AB/BA deadlock C1 exists to stop.
    let mutated = format!(
        "{source}\n\
         pub fn inverted_stats(&self) -> u64 {{\n\
        \x20    let snap = self.shared.snapshot.lock().unwrap_or_else(|e| e.into_inner());\n\
        \x20    let inbox = self.shared.inbox.lock().unwrap_or_else(|e| e.into_inner());\n\
        \x20    let depth = inbox.queue.len() as u64 + snap.batches;\n\
        \x20    drop(inbox);\n\
        \x20    drop(snap);\n\
        \x20    depth\n\
         }}\n"
    );
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "C1" && d.msg.contains("cycle")),
        "C1 must report the inbox/snapshot order cycle; got: {diags:?}"
    );
}

#[test]
fn double_acquire_is_caught_by_c1() {
    let path = "crates/engine/src/pool.rs";
    let source = read_real(path);
    assert!(
        rules_fired(path, &source).is_empty(),
        "the production pool must analyze clean before mutation"
    );

    // The mutation: a path that re-locks a mutex it already holds —
    // instant self-deadlock on a std (non-reentrant) Mutex.
    let mutated = format!(
        "{source}\n\
         pub fn drain_twice(&self) {{\n\
        \x20    let first = self.cells.lock().unwrap_or_else(|e| e.into_inner());\n\
        \x20    let second = self.cells.lock().unwrap_or_else(|e| e.into_inner());\n\
        \x20    drop(second);\n\
        \x20    drop(first);\n\
         }}\n"
    );
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "C1" && d.msg.contains("already held")),
        "C1 must report the double acquire; got: {diags:?}"
    );
}

#[test]
fn wal_reset_before_checkpoint_is_caught_by_o2() {
    let path = "crates/core/src/durable.rs";
    let source = read_real(path);
    assert!(
        rules_fired(path, &source).is_empty(),
        "the production durability module must analyze clean before mutation"
    );

    // The checkpoint-install protocol: the checkpoint must be durably in
    // place before the WAL cursor resets. A function that resets first
    // leaves a crash window with neither artifact.
    let mutated = format!(
        "{source}\n\
         pub fn install_backwards(&mut self) -> Result<(), DcartError> {{\n\
        \x20    self.writer.reset()?;\n\
        \x20    install_checkpoint(&self.dir, &self.bytes, &mut self.crash, &mut self.persist)?;\n\
        \x20    Ok(())\n\
         }}\n"
    );
    let fired = rules_fired(path, &mutated);
    assert!(
        fired.contains(&"O2"),
        "O2 must catch the reset-before-checkpoint reorder; fired: {fired:?}"
    );
}

#[test]
fn directory_sync_before_the_rename_is_caught_by_o2() {
    let path = "crates/core/src/durable.rs";
    let source = read_real(path);

    // The mutation: in the real install function, fsync the directory
    // *before* the rename it is there to make durable.
    let mutated = swap_regions(
        &source,
        "    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;",
        "    wal::sync_dir(dir)?;",
        "    persist.checkpoints += 1;",
    );
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2" && d.msg.contains("checkpoint rename (stage 1)")),
        "O2 must catch the sync-before-rename reorder; got: {diags:?}"
    );
}

#[test]
fn wal_reset_before_the_core_loop_checkpoint_is_caught_by_o2() {
    let path = "crates/server/src/core_loop.rs";
    let source = read_real(path);

    // The mutation: in the checkpoint job as the core loop runs it,
    // truncate the retired WAL segment before the job has installed the
    // checkpoint that absorbs it.
    let anchor = "    let result = checkpoint.run(";
    let early = "    checkpoint.retired.reset()?;\n";
    assert!(source.contains(anchor), "job anchor present");
    let mutated = source.replacen(anchor, &format!("{early}{anchor}"), 1);
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2" && d.msg.contains("checkpoint-install")),
        "O2 must catch the reset-before-checkpoint reorder in the core loop; got: {diags:?}"
    );
}

#[test]
fn retired_segment_reset_before_the_install_is_caught_by_o2() {
    let path = "crates/core/src/durable.rs";
    let source = read_real(path);

    // The mutation: in the real job function, empty the retired segment
    // first and install the checkpoint that absorbs it afterwards — a
    // crash in between leaves neither.
    let reset = "    if let Some(retired) = retired {\n        retired.reset()?;\n    }\n";
    let anchor = "    let tmp = dir.join(CHECKPOINT_TMP);\n";
    assert!(source.contains(reset) && source.contains(anchor), "job anchors present");
    let mutated = source.replacen(reset, "", 1).replacen(anchor, &format!("{anchor}{reset}"), 1);
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2" && d.msg.contains("checkpoint rename (stage 1)")),
        "O2 must catch the retired segment reset before the install; got: {diags:?}"
    );
}

#[test]
fn a_dropped_directory_sync_is_caught_by_o2() {
    let path = "crates/core/src/durable.rs";
    let source = read_real(path);

    // The mutation: the job function renames and then resets the retired
    // segment without ever fsyncing the directory — nothing is out of
    // order, a stage is missing, and a power cut can keep the reset and
    // lose the rename.
    let sync = "    wal::sync_dir(dir)?;\n";
    assert!(source.contains(sync), "directory sync present");
    let mutated = source.replacen(sync, "", 1);
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2"
            && d.msg.contains("WAL reset (stage 3) reached without directory sync (stage 2)")),
        "O2 must catch the dropped directory sync; got: {diags:?}"
    );
}

#[test]
fn commit_before_append_batch_in_the_durable_log_is_caught_by_o2() {
    let path = "crates/core/src/durable.rs";
    let source = read_real(path);

    // The mutation: the durable log's stage 1 writes a commit mark before
    // the batch record it would commit — a mark that promises a batch the
    // log does not hold yet, which a sync could make durable alone.
    let anchor = "        self.writer.append_batch(self.next_seq, &self.payload, crash)?;\n";
    let early = "        self.writer.commit(self.next_seq, 0, 0, true, crash)?;\n";
    assert!(source.contains(anchor), "stage 1 anchor present");
    let mutated = source.replacen(anchor, &format!("{early}{anchor}"), 1);
    let diags = xtask::analyze_source(path, &mutated);
    assert!(
        diags.iter().any(|d| d.rule == "O2" && d.msg.contains("WAL append (stage 1)")),
        "O2 must catch the commit mark before the batch record; got: {diags:?}"
    );
}
