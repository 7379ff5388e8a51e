//! The Dispatcher (paper §III-A): assigns combined buckets to SOUs.
//!
//! With the default configuration there are exactly as many bucket tables
//! as SOUs, so the assignment is the identity; with fewer SOUs than
//! buckets, buckets are dealt round-robin. The invariant the design rests
//! on — *operations targeting the same node are handled by a single SOU* —
//! holds either way, because a bucket is never split.
//!
//! The host-side executor ([`crate::execute_ctt`]) leans on the same
//! invariant: each bucket's state (subtree, shortcut shard, scratch) is
//! owned by exactly one worker for the duration of a batch, so the
//! `--sou-threads` pool needs no locks and its outcome is independent of
//! how the scheduler interleaves workers. This module stays the *timing*
//! assignment of buckets onto modelled SOUs; the host pool sizes
//! independently of it (a machine rarely has 16 spare cores, and the
//! timing model must not change when the host thread count does).

use serde::{Deserialize, Serialize};

/// A bucket → SOU assignment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dispatch {
    /// `sou_of[b]` is the SOU index handling bucket `b`.
    pub sou_of: Vec<usize>,
    /// Number of SOUs.
    pub sous: usize,
}

impl Dispatch {
    /// Computes the assignment of `buckets` bucket tables onto `sous` SOUs.
    ///
    /// # Panics
    ///
    /// Panics if `sous` is zero.
    pub fn new(buckets: usize, sous: usize) -> Self {
        assert!(sous > 0, "at least one SOU required");
        Dispatch { sou_of: (0..buckets).map(|b| b % sous).collect(), sous }
    }

    /// Computes an assignment that routes around downed SOUs: buckets are
    /// dealt round-robin over the healthy units only, so a batch keeps
    /// executing (slower) while an SOU is out. The bucket-never-split
    /// invariant is preserved. If *every* SOU is listed as down, the
    /// exclusion is ignored — the dispatcher cannot route to nothing, and
    /// degrading to the full set is the only answer-preserving option.
    ///
    /// # Panics
    ///
    /// Panics if `sous` is zero.
    pub fn new_excluding(buckets: usize, sous: usize, down: &[usize]) -> Self {
        assert!(sous > 0, "at least one SOU required");
        let healthy: Vec<usize> = (0..sous).filter(|s| !down.contains(s)).collect();
        if healthy.is_empty() {
            return Self::new(buckets, sous);
        }
        Dispatch { sou_of: (0..buckets).map(|b| healthy[b % healthy.len()]).collect(), sous }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buckets assigned to SOU `s`.
    fn buckets_of(d: &Dispatch, s: usize) -> impl Iterator<Item = usize> + '_ {
        d.sou_of.iter().enumerate().filter(move |(_, &sou)| sou == s).map(|(b, _)| b)
    }

    #[test]
    fn identity_when_counts_match() {
        let d = Dispatch::new(16, 16);
        assert_eq!(d.sou_of, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_when_fewer_sous() {
        let d = Dispatch::new(16, 4);
        assert_eq!(d.sou_of[0], 0);
        assert_eq!(d.sou_of[5], 1);
        let of_2: Vec<usize> = buckets_of(&d, 2).collect();
        assert_eq!(of_2, vec![2, 6, 10, 14]);
    }

    #[test]
    fn every_bucket_has_exactly_one_sou() {
        let d = Dispatch::new(16, 5);
        let covered: usize = (0..5).map(|s| buckets_of(&d, s).count()).sum();
        assert_eq!(covered, 16);
    }

    #[test]
    fn excluding_routes_around_downed_sous() {
        let d = Dispatch::new_excluding(16, 16, &[3, 7]);
        assert_eq!(buckets_of(&d, 3).count(), 0);
        assert_eq!(buckets_of(&d, 7).count(), 0);
        let covered: usize = (0..16).map(|s| buckets_of(&d, s).count()).sum();
        assert_eq!(covered, 16, "all buckets still handled");
        // Healthy units absorb the displaced load.
        assert!(buckets_of(&d, 0).count() >= 1);
    }

    #[test]
    fn excluding_nothing_matches_plain_dispatch() {
        assert_eq!(Dispatch::new_excluding(16, 16, &[]).sou_of, Dispatch::new(16, 16).sou_of);
    }

    #[test]
    fn excluding_everything_falls_back_to_full_set() {
        let down: Vec<usize> = (0..4).collect();
        let d = Dispatch::new_excluding(8, 4, &down);
        assert_eq!(d.sou_of, Dispatch::new(8, 4).sou_of);
    }
}
