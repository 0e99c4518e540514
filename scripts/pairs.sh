#!/usr/bin/env bash
# Alternated parent/change pairs of the benchmark, as ROADMAP's "How a
# number is claimed" asks, from the repository root:
#
#   scripts/pairs.sh <parent-rev> <pr> <workload> <seed>... [--pairs N]
#
# <workload> is one of the benchmark's workloads, or `all` for full
# runs of every workload. The parent side is <parent-rev>'s committed
# tree, exported with `git archive` into target/pairs/parent/src; the
# change side is this checkout's working tree. Each side's benchmark/
# builds into its own target/pairs/<side>. Per seed, N pairs (default
# 10) of `bad-benchmark run --json`: odd pairs run the parent first,
# even pairs the change.
#
# Writes BENCH_pr<pr>.json at the root: both SHAs, nproc and rustc,
# and per seed and side every run's end-to-end metrics (each run is the
# one line a `--json` results file holds inside "runs":[…]). Prints
# `bad-benchmark compare` (parent against change) per seed, and exits
# non-zero when a cell regressed past its bound.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/pairs.sh <parent-rev> <pr> <workload|all> <seed>... [--pairs N]" >&2
  exit 2
}

pairs=10
args=()
while (($#)); do
  case "$1" in
    --pairs) pairs="${2:?--pairs needs a number}"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
((${#args[@]} >= 4)) || usage
parent_rev="${args[0]}" pr="${args[1]}" workload="${args[2]}"
seeds=("${args[@]:3}")
[[ "$pr" =~ ^[0-9]+$ && "$pairs" =~ ^[0-9]+$ ]] || usage
for seed in "${seeds[@]}"; do
  [[ "$seed" =~ ^[0-9]+$ ]] || usage
done

root="$PWD"
work="$root/target/pairs"
parent_sha="$(git rev-parse --verify "$parent_rev^{commit}")"
change_sha="$(git rev-parse HEAD)"
dirty=false
[[ -z "$(git status --porcelain)" ]] || dirty=true

# The parent's committed tree, exported fresh.
rm -rf "$work/parent/src"
mkdir -p "$work/parent/src" "$work/change"
git archive "$parent_sha" | tar -x -C "$work/parent/src"

build() { # <side> <source root>
  CARGO_TARGET_DIR="$work/$1" cargo build --release --offline --quiet \
    --manifest-path "$2/benchmark/Cargo.toml" >&2
}
build parent "$work/parent/src"
build change "$root"
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC

workload_flag=()
[[ "$workload" == all ]] || workload_flag=(--workload "$workload")

# One run of <side> on <seed>; prints the run's line.
run_once() { # <side> <seed> <index>
  local out="$work/runs/$2/$1-$3.json"
  mkdir -p "$(dirname "$out")"
  "$work/$1/release/bad-benchmark" run "${workload_flag[@]}" --seed "$2" --json "$out" >/dev/null
  sed -n 2p "$out"
}

join_runs() { # lines on stdin -> one `[…]` with a run per line
  local first=1
  echo "["
  while IFS= read -r line; do
    ((first)) || echo ","
    printf '%s' "$line"
    first=0
  done
  printf '\n]'
}

seed_entries=()
for seed in "${seeds[@]}"; do
  : >"$work/runs-$seed-parent.txt"
  : >"$work/runs-$seed-change.txt"
  for ((i = 1; i <= pairs; i++)); do
    order=(parent change)
    ((i % 2)) || order=(change parent)
    for side in "${order[@]}"; do
      echo "pairs: seed $seed, pair $i/$pairs, $side" >&2
      run_once "$side" "$seed" "$i" >>"$work/runs-$seed-$side.txt"
    done
  done
  for side in parent change; do
    printf '{"runs":%s}\n' "$(join_runs <"$work/runs-$seed-$side.txt")" \
      >"$work/seed-$seed-$side.json"
  done
  seed_entries+=("$(printf '"%s":{"parent":%s,\n"change":%s}' "$seed" \
    "$(join_runs <"$work/runs-$seed-parent.txt")" \
    "$(join_runs <"$work/runs-$seed-change.txt")")")
done

out="BENCH_pr$pr.json"
{
  printf '{"pr":%s,"workload":"%s","parent_sha":"%s","change_sha":"%s","change_dirty":%s,' \
    "$pr" "$workload" "$parent_sha" "$change_sha" "$dirty"
  printf '"nproc":%s,"rustc":"%s","pairs":%s,"seeds":{\n' "$(nproc)" "$BENCH_RUSTC" "$pairs"
  first=1
  for entry in "${seed_entries[@]}"; do
    ((first)) || printf ',\n'
    printf '%s' "$entry"
    first=0
  done
  printf '}}\n'
} >"$out"
echo "pairs: wrote $out" >&2

status=0
for seed in "${seeds[@]}"; do
  echo "== seed $seed: parent (a) against change (b) =="
  "$work/change/release/bad-benchmark" compare \
    "$work/seed-$seed-parent.json" "$work/seed-$seed-change.json" || status=1
done
exit "$status"
