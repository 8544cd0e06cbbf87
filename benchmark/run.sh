#!/usr/bin/env bash
# The one command: build `miro` and the benchmark, then run it.
#
#   benchmark/run.sh                         all six workloads: 3 timed passes + 1 traced pass each
#   benchmark/run.sh --smoke                 the same on a 209-node graph, under 20 s
#   benchmark/run.sh --out FILE              ... and write the result file `compare` reads
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one pass of one workload; last line is the result object
#   benchmark/run.sh compare A.json B.json   apply BENCHMARK.json's bounds to two result files
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both builds share one target directory. A relative CARGO_TARGET_DIR is
# relative to the repo root, where both cargo runs start.
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

# Tier-1's `cargo build --release` builds only the umbrella library; the
# shard workers and the serve daemon need the `miro` binary itself.
cargo build --release --offline --quiet -p miro-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

export MIRO_BIN="$target/release/miro"
export MIRO_BENCH_SPEC="BENCHMARK.json"
export MIRO_BENCH_OUT="benchmark/out"

# Not `exec`: this shell has cargo's CPU time and peak memory on its
# books as reaped children, and the benchmark reads its own books to
# account for the workers and daemons it spawns.
"$target/release/miro-benchmark" "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null' TERM INT
wait "$pid"
