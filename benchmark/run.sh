#!/usr/bin/env bash
# The one command: build the benchmark, then run it.
#
#   bash benchmark/run.sh                      all four workloads, then the traced
#                                              pass; writes benchmark/out/result.json
#   bash benchmark/run.sh --quick              the same as a < 25 s smoke run
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one workload; the last line of output
#                                              is the result object (BENCHMARK.json's
#                                              `command` is this form)
#
# Builds `--release --offline` into $CARGO_TARGET_DIR (default
# benchmark/target). Temp data dirs live under benchmark/out/ and are
# removed on every exit path; a daemon child that outlives its generator
# exits on its own when its stdin closes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

cleanup() {
    rm -rf "$out"/tmp-* 2>/dev/null || true
}
trap cleanup EXIT

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$target/release/pres-benchmark"
mkdir -p "$out"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        "$bin" "$@" --out "$out"
        exit $?
    fi
done
"$bin" suite "$@" --out "$out"
