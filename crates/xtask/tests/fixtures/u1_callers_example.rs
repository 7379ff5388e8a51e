//! U1 companion: an example, part of the read-only corpus.

fn main() {
    let _unit = dcart::UsedByAnExample;
}
