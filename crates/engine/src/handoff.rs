//! [`SyncHandoff`]: the bounded hand-off between a producer whose work
//! becomes final only with an fsync and the thread that issues the fsyncs.

/// The hand-off between a thread whose work becomes final only with an
/// fsync and the thread that issues the fsyncs.
///
/// A *producer* writes something to a file (a WAL commit mark), then
/// [`enqueue`](Self::enqueue)s what may be released once that write
/// is durable, and goes on producing. A *committer* takes everything
/// queued ([`begin_sync`](Self::begin_sync)), fsyncs the file,
/// releases what it took, and reports back
/// ([`end_sync`](Self::end_sync)). Because an item is queued only
/// after its write returned and taken before the fsync is called, **an
/// item is released only by a sync that began after its write** — and one
/// sync covers every item queued while the previous one ran, so group
/// commit arises from the overlap, with no timer and no added wait.
///
/// At most `bound` items are queued at a time: a slow disk backs up into
/// the producer. [`is_idle`](Self::is_idle) — nothing queued and no
/// sync in flight — is what the producer waits for before it changes the
/// file in a way a running fsync must not see (truncation).
///
/// The type is the state machine alone: every transition is a non-blocking
/// `&mut self` call, made under one mutex the user wraps around it, with
/// whatever condition variables its waits need (`dcart-server`'s commit
/// pipeline). That keeps it checkable by the vendored `loom`, which has a
/// `Mutex` and no `Condvar` (`tests/loom.rs`). The items taken by a sync
/// come back through `end_sync` and are handed out again by
/// [`recycled`](Self::recycled), so a steady producer allocates
/// nothing.
#[derive(Debug)]
pub struct SyncHandoff<T> {
    /// Enqueued and not yet taken, oldest first.
    queued: Vec<T>,
    /// Items a sync has released, for reuse.
    spare: Vec<T>,
    bound: usize,
    /// Between a `begin_sync` that took something and its `end_sync`.
    syncing: bool,
}

impl<T: Default> SyncHandoff<T> {
    /// An idle hand-off that queues at most `bound` (at least one) items.
    pub fn new(bound: usize) -> Self {
        SyncHandoff { queued: Vec::new(), spare: Vec::new(), bound: bound.max(1), syncing: false }
    }

    /// An item to fill and [`enqueue`](Self::enqueue): one a sync has
    /// released, as its committer left it, or a fresh default.
    pub fn recycled(&mut self) -> T {
        self.spare.pop().unwrap_or_default()
    }

    /// Producer: queues `item` behind everything queued before it — or
    /// gives it back when `bound` items are queued already.
    ///
    /// # Errors
    ///
    /// `Err(item)` at the bound; nothing changed.
    pub fn enqueue(&mut self, item: T) -> Result<(), T> {
        if self.queued.len() >= self.bound {
            return Err(item);
        }
        self.queued.push(item);
        Ok(())
    }

    /// Committer: moves everything queued into the empty `taken`, in
    /// order, and marks a sync in flight. `false` — and nothing in flight —
    /// when nothing was queued. The fsync must be *called after* this
    /// returns.
    pub fn begin_sync(&mut self, taken: &mut Vec<T>) -> bool {
        debug_assert!(taken.is_empty() && !self.syncing, "one sync at a time");
        std::mem::swap(&mut self.queued, taken);
        self.syncing = !taken.is_empty();
        self.syncing
    }

    /// Committer: the sync [`begin_sync`](Self::begin_sync) started is
    /// over and what it took has been released. `taken`'s items — emptied
    /// by the caller, capacity kept — are drained into the spares.
    pub fn end_sync(&mut self, taken: &mut Vec<T>) {
        self.spare.append(taken);
        self.syncing = false;
    }

    /// Nothing is queued and no sync is in flight: everything ever
    /// enqueued has been released.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && !self.syncing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_come_out_in_order_once_and_the_bound_holds() {
        let mut h = SyncHandoff::<Vec<u32>>::new(2);
        assert!(h.is_idle());
        let mut taken = Vec::new();
        assert!(!h.begin_sync(&mut taken), "nothing queued, nothing in flight");
        assert!(h.is_idle());

        h.enqueue(vec![1]).expect("room");
        h.enqueue(vec![2]).expect("room");
        assert_eq!(h.enqueue(vec![3]), Err(vec![3]), "the bound");
        assert!(!h.is_idle());

        assert!(h.begin_sync(&mut taken));
        assert_eq!(taken, [vec![1], vec![2]]);
        // Room again while the sync runs; not idle until it ends.
        h.enqueue(vec![3]).expect("room");
        taken.iter_mut().for_each(Vec::clear);
        h.end_sync(&mut taken);
        assert!(taken.is_empty() && !h.is_idle(), "3 is still queued");

        assert!(h.begin_sync(&mut taken));
        assert_eq!(taken, [vec![3]]);
        taken.iter_mut().for_each(Vec::clear);
        h.end_sync(&mut taken);
        assert!(h.is_idle());
    }

    #[test]
    fn released_items_are_handed_out_again_with_their_capacity() {
        let mut h = SyncHandoff::<Vec<u32>>::new(4);
        let mut item = h.recycled();
        assert_eq!(item.capacity(), 0, "nothing to recycle yet");
        item.extend(0..100);
        h.enqueue(item).expect("room");
        let mut taken = Vec::new();
        assert!(h.begin_sync(&mut taken));
        taken[0].clear();
        h.end_sync(&mut taken);
        let again = h.recycled();
        assert!(again.is_empty() && again.capacity() >= 100);
    }
}
