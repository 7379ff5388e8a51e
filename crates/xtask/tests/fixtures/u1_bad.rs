//! Known-bad: library `pub` items that no non-test code of the program
//! references. Analyzed as one file of a small program (see the
//! `u1_callers_*.rs` companions).

/// Called only from this file's unit tests.
pub fn only_tested() -> u32 {
    1
}

/// Named only by a `pub use` in another library file.
pub fn only_reexported() -> u32 {
    2
}

/// A type nothing mentions.
pub struct Unmentioned;

/// A constant nothing reads.
pub const UNREAD: u32 = 3;

/// Named only by its own `impl` blocks: their headers, an `impl Default`,
/// and `SelfNamed::new()` inside its own body.
pub struct SelfNamed;

impl SelfNamed {
    fn new() -> Self {
        SelfNamed
    }
}

impl Default for SelfNamed {
    fn default() -> Self {
        SelfNamed::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_is_one() {
        assert_eq!(only_tested(), 1);
    }
}
