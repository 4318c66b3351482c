#!/usr/bin/env bash
# A/A comparison of one build: two interleaved sets of N runs (default 5,
# never fewer) of every workload, each run with its own --seed. Prints, for
# every workload x end-to-end metric, both medians, their relative
# difference, both quartile spreads and the bound; exits non-zero if a
# difference or a spread (set-up time's excepted) is beyond its bound.
#
#   benchmark/aa.sh [N] [SECONDS]
#
# SECONDS defaults to BENCHMARK.json's run_seconds. On an otherwise idle
# machine the comparison takes about 2 x N x 6 x (SECONDS + 3) seconds.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml -- --aa "${1:-5}" ${2:+--seconds "$2"}
