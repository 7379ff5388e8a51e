//! Known-bad: the checkpoint-install protocol resets the WAL before the
//! directory holding the renamed checkpoint is synced. Analyzed as if it
//! were `crates/core/src/durable.rs`, where the `checkpoint-install`
//! automaton is armed.

pub fn install(&mut self, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = File::create(&self.tmp_path)?;
    tmp.write_all(bytes)?;
    tmp.sync_all()?;
    fs::rename(&self.tmp_path, &self.live_path)?;
    // The reset is fsynced by the writer; the rename is not durable until
    // the directory is. A power cut here keeps the empty log and may drop
    // the rename — acknowledged writes gone. O2 exists to catch this.
    self.writer.reset()?;
    sync_dir(&self.dir)?;
    Ok(())
}
