//! Untraced runs (`--trace 0`): the system allocator, as `mse` uses it,
//! so the gated figures carry no allocation counting.

fn main() {
    perfbench::main(false);
}
