#!/usr/bin/env bash
# Builds the benchmark harness and runs it.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one fresh process; the last line of standard
#       output is the result object (this is BENCHMARK.json's command)
#   bash benchmark/run.sh --all [--seed N] [--seconds S]
#       every workload, untraced then traced
#   bash benchmark/run.sh --check
#       every workload and both passes at tiny sizes, in seconds: tells a
#       broken harness from a slow program
#
# Dependencies come from the crates.io registry when it answers, and
# otherwise from the stand-ins under benchmark/offline/ (see README.md).
# The choice is made once per build directory and printed with every
# result as deps_source.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
export CARGO_TARGET_DIR=$target
manifest=$here/Cargo.toml
mode_file=$target/deps_source

standin_patches=()
for crate in rand serde serde_json crossbeam parking_lot; do
    standin_patches+=(--config "patch.crates-io.$crate.path=\"$here/offline/$crate\"")
done

mkdir -p "$target"
if [ ! -f "$mode_file" ]; then
    # A lock file from the other source would pin versions it cannot find.
    rm -f "$here/Cargo.lock"
    if CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=10 \
        cargo fetch --quiet --manifest-path "$manifest" 2>/dev/null; then
        echo registry >"$mode_file"
    else
        rm -f "$here/Cargo.lock"
        echo standin >"$mode_file"
    fi
fi
deps_source=$(cat "$mode_file")

if [ "$deps_source" = registry ]; then
    cargo build --release --quiet --manifest-path "$manifest" >&2
else
    cargo build --release --quiet --offline --manifest-path "$manifest" \
        "${standin_patches[@]}" >&2
fi

export TRACON_BENCH_DEPS_SOURCE=$deps_source
export TRACON_BENCH_RUSTC=$(rustc --version)
export TRACON_BENCH_COMMIT=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
export TRACON_BENCH_DIR=$target/bench-run
bin=$target/release/tracon-benchmark
workloads=(sim-dynamic sim-batch serve-durable serve-mixed)

case "${1:-}" in
--check)
    for workload in "${workloads[@]}"; do
        for trace in 0 1; do
            echo "== check: $workload, trace $trace" >&2
            "$bin" --workload "$workload" --seed 1 --seconds 2 --trace "$trace" --check |
                tail -n 1
        done
    done
    echo "check passed" >&2
    ;;
--all)
    shift
    seed=1
    seconds=12
    while [ $# -gt 0 ]; do
        case "$1" in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        *)
            echo "run.sh --all takes --seed N and --seconds S" >&2
            exit 2
            ;;
        esac
        shift 2
    done
    for workload in "${workloads[@]}"; do
        for trace in 0 1; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
        done
    done
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
