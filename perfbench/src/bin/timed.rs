//! Timed runs: end-to-end metrics on the system allocator.

fn main() {
    std::process::exit(perfbench::main(false));
}
