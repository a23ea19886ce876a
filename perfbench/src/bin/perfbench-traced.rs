//! Traced runs (`--trace 1`): the counting allocator of `mse-bench`
//! behind the per-layer allocation counts.

#[global_allocator]
static GLOBAL: mse_bench::alloc::CountingAlloc = mse_bench::alloc::CountingAlloc;

fn main() {
    perfbench::main(true);
}
