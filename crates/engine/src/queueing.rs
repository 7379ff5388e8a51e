//! Latency percentiles, for the throughput–latency curves of the paper's
//! Fig. 10, and the admission-rejection vocabulary.

/// Records per-operation latencies and reports percentiles.
///
/// # Examples
///
/// ```
/// use dcart_engine::LatencyRecorder;
///
/// let mut rec = LatencyRecorder::new();
/// for l in 1..=100u64 {
///     rec.record(l as f64);
/// }
/// assert_eq!(rec.percentile(0.99), 99.0);
/// assert_eq!(rec.percentile(0.50), 50.0);
/// ```
#[derive(Clone, Default, Debug)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (any consistent unit).
    pub fn record(&mut self, latency: f64) {
        self.samples.push(latency);
        self.sorted = false;
    }

    /// The `p`-th percentile (`p` in `(0, 1]`), by nearest-rank.
    ///
    /// Returns `0.0` for an empty recorder.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((p * self.samples.len() as f64).ceil() as usize).max(1);
        self.samples[rank - 1]
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Why an admission controller turned a request away. The serving layer
/// returns these to clients verbatim (with a bounded retry hint), so the
/// set is a wire-visible contract: variants are appended, never reordered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The admission queue was full; retry after the hinted backoff.
    Overloaded,
    /// The request's deadline expired (or its budget could not survive
    /// the configured queueing delay) — executing it would only produce
    /// an answer nobody is waiting for.
    DeadlineExceeded,
    /// The queue is deep enough that scans are shed — the first to go, at
    /// the lowest depth: they are the widest operations and no client has
    /// been promised one. Shedding ends as the queue drains.
    ShedScan,
    /// The queue is deeper still, and point reads are shed too. Writes are
    /// never shed — only a full queue refuses them, with `Overloaded`.
    ShedRead,
    /// The server is draining (SIGINT or a shutdown frame): in-flight
    /// batches flush, new work is turned away.
    Draining,
}

impl RejectReason {
    /// Stable wire code (`u8`), appended-only.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::Overloaded => 0,
            RejectReason::DeadlineExceeded => 1,
            RejectReason::ShedScan => 2,
            RejectReason::ShedRead => 3,
            RejectReason::Draining => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RejectReason::Overloaded),
            1 => Some(RejectReason::DeadlineExceeded),
            2 => Some(RejectReason::ShedScan),
            3 => Some(RejectReason::ShedRead),
            4 => Some(RejectReason::Draining),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            r.record(v);
        }
        assert_eq!(r.percentile(0.2), 1.0);
        assert_eq!(r.percentile(0.5), 3.0);
        assert_eq!(r.percentile(1.0), 5.0);
    }

    #[test]
    fn empty_is_zero() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.percentile(0.99), 0.0);
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    fn mean_is_arithmetic() {
        let mut r = LatencyRecorder::new();
        r.record(2.0);
        r.record(4.0);
        assert_eq!(r.mean(), 3.0);
    }

    #[test]
    fn recording_after_percentile_stays_correct() {
        let mut r = LatencyRecorder::new();
        r.record(10.0);
        assert_eq!(r.percentile(1.0), 10.0);
        r.record(1.0);
        assert_eq!(r.percentile(0.5), 1.0);
    }
}
