//! U1 companion: a binary of the program.

fn main() {
    let _answer = dcart::used_by_a_binary();
}
