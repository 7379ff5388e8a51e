//! Fixture: G1 must fire on every form of process-global mutable state —
//! an atomic knob, a lock, a lazily-set once-cell, a multi-line lock type,
//! a thread-local cell and a `static mut`.

static THREADS: AtomicUsize = AtomicUsize::new(1);

pub static NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

static CONFIG: OnceLock<u64> = OnceLock::new();

static TABLE: RwLock<
    Vec<u64>,
> = RwLock::new(Vec::new());

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());
}

static mut COUNTER: u64 = 0;
