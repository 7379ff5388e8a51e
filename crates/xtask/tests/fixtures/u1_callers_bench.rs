//! U1 companion: a file of the benchmark package, part of the read-only
//! corpus.

fn run() -> u32 {
    dcart::used_by_the_benchmark()
}
