#!/usr/bin/env bash
# Builds the benchmark in release and runs it from the repository root.
#
#   benchmark/run.sh [--seed 7]            all four workloads, end-to-end metrics
#   benchmark/run.sh --trace               all four workloads, per-layer metrics
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The target directory is the root build's (`target`), or `CARGO_TARGET_DIR`
# where the caller sets one.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
# glibc hands freed memory back to the kernel and maps it again by thresholds
# that it adapts to each process's allocation history; under the engine's
# worker threads that history differs from process to process, and runs of the
# same code took 0.3 to 2 million page faults and read up to 25 % apart.  Fixed
# thresholds keep freed memory in the heap: about 20 thousand faults, every run.
exec env MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=33554432 \
    "$target/release/ij-benchmark" "$@"
