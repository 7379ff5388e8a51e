//! Known-good twin of `g1_bad.rs`: configuration is plain data the caller
//! passes down; immutable statics and `'static` borrows are not state, and
//! test-only globals are exempt.

pub struct Opts {
    pub threads: usize,
}

pub const DEFAULT: Opts = Opts { threads: 1 };

static NAMES: [&str; 2] = ["serial", "pooled"];

pub fn name(opts: &Opts) -> &'static str {
    NAMES[usize::from(opts.threads > 1)]
}

pub fn finish(done: &AtomicUsize) -> usize {
    done.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    static SEEN: AtomicUsize = AtomicUsize::new(0);
}
