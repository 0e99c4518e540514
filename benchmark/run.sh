#!/usr/bin/env bash
# Builds the benchmark offline and runs it. From the repository root:
#
#   benchmark/run.sh                      every workload, 3 passes each
#   benchmark/run.sh --workload t2_fit --seed 2 --seconds 15 --trace 1
#   benchmark/run.sh --smoke              every workload once, a few seconds
#   benchmark/run.sh --aa 3               A/A self-check, 3 runs per set
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR, or to the root's already
# ignored target/benchmark when that is not set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC
bin="$CARGO_TARGET_DIR/release/bad-benchmark"
case "${1:-}" in
  --aa) shift; exec "$bin" aa "$@" ;;
  --* | "") exec "$bin" run "$@" ;;
  *) exec "$bin" "$@" ;;
esac
