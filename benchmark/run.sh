#!/usr/bin/env bash
# Build the benchmark and run it. Run from anywhere; `--help` lists the flags.
#
#   benchmark/run.sh                 every workload, untraced: the end-to-end metrics
#   benchmark/run.sh --traced        every workload, traced: the per-layer metrics
#   benchmark/run.sh --smoke         every workload at 32^3, under 20 s
#   benchmark/run.sh --calibrate 5   run-to-run spread of each metric against its bound
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one workload; last line of stdout is the result object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for the paths below alike.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

# A traced run also times the `--features obs` build of the same program.
traced=0
prev=""
for arg in "$@"; do
  if [[ "$arg" == "--traced" || ( "$prev" == "--trace" && "$arg" == "1" ) ]]; then
    traced=1
  fi
  prev="$arg"
done
if [[ "$traced" == 1 ]]; then
  cargo build --release --offline --quiet --features obs \
    --manifest-path "$here/Cargo.toml" --target-dir "$target/obs" 1>&2
  export TEMPEST_BENCH_OBS_BIN="$target/obs/release/tempest-benchmark"
fi

TEMPEST_BENCH_RUSTC="$(rustc --version)"
TEMPEST_BENCH_GIT_SHA="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export TEMPEST_BENCH_RUSTC TEMPEST_BENCH_GIT_SHA

exec "$target/release/tempest-benchmark" "$@"
