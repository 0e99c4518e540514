#!/usr/bin/env bash
# Rust line counts of a checkout, per crate and split into `src` and
# `tests`, plus the benchmark and the root package:
#
#   scripts/loc.sh [DIR]
#
# DIR defaults to this repository's root; pass another checkout (for
# example a `git archive` of the parent commit) to compare before and
# after. Counts are physical lines of every `*.rs` file: a crate's
# `src` includes its `src/bin`, its `tests` every file under `tests/`
# (helpers included). The root package's `src` is `src/`, its `tests`
# are `tests/` and `examples/`. The last line is the physical lines of
# the five files ROADMAP item 5 bounds (`manager.rs`, `sharded.rs`,
# `broker.rs`, `runtime.rs` and `scrape.rs`), tests included.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Lines of every *.rs file under the given directories (0 if none).
lines() {
  local dirs=()
  for dir in "$@"; do
    [[ -d "$dir" ]] && dirs+=("$dir")
  done
  ((${#dirs[@]})) || { echo 0; return; }
  find "${dirs[@]}" -name '*.rs' -print0 | xargs -0r cat | wc -l
}

printf '%-12s %7s %7s %7s\n' part src tests total
sum_src=0 sum_tests=0
for crate in crates/*/; do
  name="$(basename "$crate")"
  src="$(lines "$crate/src")" tests="$(lines "$crate/tests")"
  printf '%-12s %7d %7d %7d\n' "$name" "$src" "$tests" $((src + tests))
  sum_src=$((sum_src + src)) sum_tests=$((sum_tests + tests))
done
printf '%-12s %7d %7d %7d\n' 'crates/' "$sum_src" "$sum_tests" $((sum_src + sum_tests))
src="$(lines benchmark/src)" tests="$(lines benchmark/tests)"
printf '%-12s %7d %7d %7d\n' benchmark "$src" "$tests" $((src + tests))
src="$(lines src)" tests="$(lines tests examples)"
printf '%-12s %7d %7d %7d\n' root "$src" "$tests" $((src + tests))
item5=(crates/cache/src/manager.rs crates/cache/src/sharded.rs
  crates/broker/src/broker.rs crates/proto/src/runtime.rs
  crates/telemetry/src/scrape.rs)
printf '%-12s %7d\n' 'item 5' "$(cat "${item5[@]}" | wc -l)"
