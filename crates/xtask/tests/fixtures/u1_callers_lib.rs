//! U1 companion: a second library file of the program.

pub use crate::fixture_under_test::only_reexported;

fn caller() -> u32 {
    dcart::used_by_another_lib_file()
}
