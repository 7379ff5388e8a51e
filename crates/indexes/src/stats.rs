//! Shared instrumentation for the related-work indexes.

/// Write-amplification and access accounting.
///
/// `bytes_logical` counts the payload the caller asked to store (key +
/// value); `bytes_written` counts what the structure actually moved
/// (including node splits, shifts, and rehashing). Their ratio is the
/// write amplification the paper's §V attributes to B+-trees — ART avoids
/// most of it because inner nodes never hold full keys.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WriteStats {
    /// Payload bytes the caller stored (key + value sizes).
    pub bytes_logical: u64,
    /// Bytes the structure physically wrote, including reorganization.
    pub bytes_written: u64,
    /// Node (or bucket) accesses performed across all operations.
    pub node_accesses: u64,
    /// Key comparisons performed.
    pub comparisons: u64,
}

impl WriteStats {
    /// Write amplification: physical / logical bytes (`0` before writes).
    pub fn amplification(&self) -> f64 {
        if self.bytes_logical == 0 {
            0.0
        } else {
            self.bytes_written as f64 / self.bytes_logical as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_ratio() {
        let s = WriteStats { bytes_logical: 100, bytes_written: 450, ..Default::default() };
        assert!((s.amplification() - 4.5).abs() < 1e-12);
        assert_eq!(WriteStats::default().amplification(), 0.0);
    }
}
