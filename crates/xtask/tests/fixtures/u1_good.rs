//! Known-good twin of `u1_bad.rs`: every library `pub` item has a
//! non-test reference somewhere in the program, or a live allow marker.

/// Called from another library file.
pub fn used_by_another_lib_file() -> u32 {
    USED_IN_THIS_FILE
}

/// Read by the function above, in this same file.
pub const USED_IN_THIS_FILE: u32 = 1;

/// Called from a binary under `src/bin/`.
pub fn used_by_a_binary() -> u32 {
    2
}

/// Called only from the benchmark package.
pub fn used_by_the_benchmark() -> u32 {
    3
}

/// Named only by an example.
pub struct UsedByAnExample;

/// The reference the unit tests compare `used_by_a_binary` against.
// dcart_lint::allow(U1) -- oracle the tests check the production path against
pub fn reference_oracle() -> u32 {
    2
}

/// Crate-internal items are not public API.
pub(crate) fn crate_internal() -> u32 {
    4
}

/// Used as the type of another struct's field.
pub struct UsedAsAFieldType;

/// Named inside another type's `impl` body.
pub struct NamedInAnotherImpl;

/// Private, so not judged; its field and its `impl` are references.
struct Holder {
    part: UsedAsAFieldType,
}

impl Holder {
    fn other(&self) -> NamedInAnotherImpl {
        NamedInAnotherImpl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_path_matches_the_oracle() {
        assert_eq!(used_by_a_binary(), reference_oracle());
    }
}
