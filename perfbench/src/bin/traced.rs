//! Traced runs: per-layer metrics, with allocation counting on.

#[global_allocator]
static ALLOC: hydra_sim::CountingAlloc = hydra_sim::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main(true));
}
