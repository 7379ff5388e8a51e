//! The Prefix-based Combining Unit (paper §III-B).
//!
//! The PCU scans arriving operations, extracts each key's combining prefix
//! (8 bits by default), and appends the operation to the bucket table whose
//! label matches — a three-stage pipeline in hardware
//! (Scan_Operation → Get_Prefix → Combine_Operation). This module is the
//! functional combiner; the accelerator model charges its pipeline timing.

use dcart_workloads::Op;

use crate::config::DcartConfig;

/// Bytes of one operation descriptor as streamed through the Scan buffer
/// and stored in a bucket-table entry (key id, op kind, value pointer).
pub const OP_STREAM_BYTES: u64 = 48;

/// Number of operation descriptors the Scan buffer holds — the depth of
/// the arrival queue in front of the PCU. When backpressure (e.g. a
/// response-queue overflow downstream) stalls combining, at most this many
/// operations are parked on chip; the rest wait in host memory.
pub fn scan_capacity_ops(scan_buffer_bytes: u64) -> u64 {
    (scan_buffer_bytes / OP_STREAM_BYTES).max(1)
}

/// Result of combining one batch: per-bucket operation index lists.
#[derive(Clone, Debug)]
pub struct CombinedBatch {
    /// `buckets[b]` holds indices (into the batch) of the operations whose
    /// prefix maps to bucket `b`, in arrival order.
    pub buckets: Vec<Vec<u32>>,
    /// Number of operations scanned.
    pub scanned: u32,
}

impl CombinedBatch {
    /// Operation count of the fullest bucket (the combining skew, which
    /// bounds SOU load balance).
    pub fn max_bucket_len(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Combines a batch of operations into disjoint per-prefix buckets in
/// `out`, reusing its bucket allocations.
///
/// The executor combines one batch per `batch_size` operations, and
/// re-allocating 16 bucket `Vec`s each time is pure churn. `out` is
/// cleared (buckets emptied, not freed) and refilled; it is resized if
/// the configured bucket count changed.
pub fn combine_batch_into(config: &DcartConfig, batch: &[Op], out: &mut CombinedBatch) {
    out.buckets.resize_with(config.buckets(), Vec::new);
    out.buckets.truncate(config.buckets());
    for b in &mut out.buckets {
        b.clear();
    }
    for (i, op) in batch.iter().enumerate() {
        let prefix = op.key.prefix_bits_at(config.prefix_skip_bytes, config.prefix_bits);
        out.buckets[config.bucket_of(prefix)].push(i as u32);
    }
    out.scanned = batch.len() as u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcart_art::Key;
    use dcart_workloads::OpKind;

    fn op(first_byte: u8) -> Op {
        Op { kind: OpKind::Read, key: Key::from_raw(vec![first_byte, 1, 2, 3]), value: 0 }
    }

    /// Combines `batch` into a fresh, empty output.
    fn combine(cfg: &DcartConfig, batch: &[Op]) -> CombinedBatch {
        let mut out = CombinedBatch { buckets: Vec::new(), scanned: 0 };
        combine_batch_into(cfg, batch, &mut out);
        out
    }

    #[test]
    fn same_prefix_lands_in_same_bucket() {
        let cfg = DcartConfig::default();
        let batch = vec![op(0x67), op(0x20), op(0x67), op(0x67)];
        let combined = combine(&cfg, &batch);
        assert_eq!(combined.scanned, 4);
        let bucket_67 = cfg.bucket_of(0x67);
        assert_eq!(combined.buckets[bucket_67], vec![0, 2, 3]);
    }

    #[test]
    fn buckets_are_disjoint_and_complete() {
        let cfg = DcartConfig::default();
        let batch: Vec<Op> = (0..=255u8).map(op).collect();
        let combined = combine(&cfg, &batch);
        let total: usize = combined.buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 256);
        assert_eq!(combined.buckets.iter().filter(|b| !b.is_empty()).count(), 16);
        // 256 prefixes over 16 buckets: perfectly balanced here.
        assert_eq!(combined.max_bucket_len(), 16);
    }

    #[test]
    fn arrival_order_preserved_within_bucket() {
        let cfg = DcartConfig::default();
        let batch = vec![op(0x10), op(0x10), op(0x10)];
        let combined = combine(&cfg, &batch);
        let b = cfg.bucket_of(0x10);
        assert_eq!(combined.buckets[b], vec![0, 1, 2]);
    }

    #[test]
    fn reused_combine_matches_the_allocating_one() {
        let cfg = DcartConfig::default();
        let batch_a: Vec<Op> = (0..=255u8).map(op).collect();
        let batch_b = vec![op(0x67), op(0x20), op(0x67)];
        let mut reused = combine(&cfg, &batch_a);
        // Refill with a different (smaller) batch: stale indices must not
        // survive the reuse.
        combine_batch_into(&cfg, &batch_b, &mut reused);
        let fresh = combine(&cfg, &batch_b);
        assert_eq!(reused.scanned, fresh.scanned);
        assert_eq!(reused.buckets, fresh.buckets);
    }

    #[test]
    fn scan_capacity_scales_with_buffer() {
        assert_eq!(scan_capacity_ops(512 * 1024), 512 * 1024 / 48);
        assert_eq!(scan_capacity_ops(0), 1, "never zero capacity");
    }

    #[test]
    fn wider_prefix_separates_finer() {
        let cfg = DcartConfig { prefix_bits: 16, ..Default::default() };
        // Same first byte, different second byte → may differ in bucket.
        let a = Op { kind: OpKind::Read, key: Key::from_raw(vec![1, 0, 0]), value: 0 };
        let b = Op { kind: OpKind::Read, key: Key::from_raw(vec![1, 5, 0]), value: 0 };
        let pa = a.key.prefix_bits(16);
        let pb = b.key.prefix_bits(16);
        assert_ne!(pa, pb);
        assert_ne!(cfg.bucket_of(pa), cfg.bucket_of(pb));
    }
}
