//! Known-good twin of `o2_install_bad.rs`: temp file, fsync, rename,
//! directory fsync, and only then the WAL reset. The early return on an
//! empty image touches none of the stages.

pub fn install(&mut self, bytes: &[u8]) -> io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    let mut tmp = File::create(&self.tmp_path)?;
    tmp.write_all(bytes)?;
    tmp.sync_all()?;
    fs::rename(&self.tmp_path, &self.live_path)?;
    sync_dir(&self.dir)?;
    self.writer.reset()?;
    Ok(())
}
