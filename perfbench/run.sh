#!/usr/bin/env bash
# Build the system under test (`mse`) and the benchmark from source, then
# run one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
#
# `--trace 0` runs `perfbench` (system allocator, as `mse` runs);
# `--trace 1` runs `perfbench-traced` (counting allocator).
# Cargo output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mse-cli --bin mse 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
bin=perfbench
prev=
for a in "$@"; do
    if [ "$prev" = --trace ] && [ "$a" = 1 ]; then bin=perfbench-traced; fi
    prev=$a
done
exec "$CARGO_TARGET_DIR/release/$bin" --mse-bin "$CARGO_TARGET_DIR/release/mse" "$@"
