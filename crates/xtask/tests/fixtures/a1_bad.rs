//! Known-bad: `Relaxed` and `SeqCst` orderings with no written
//! justification, in a library crate (A1 has no exempt file).

pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

pub fn latch(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}
