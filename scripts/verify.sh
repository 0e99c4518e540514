#!/usr/bin/env bash
# Verification gate.
#
#   scripts/verify.sh [auto|online|offline]
#
# online  — full gate: build, tests, formatting, lints. Requires
#           registry access (or a warm cargo cache) for the external
#           deps.
# offline — every test target of the eight std-only crates (types,
#           telemetry, query, storage, net, cache, cluster, broker) in
#           a workspace copy assembled under target/offline-check/ws,
#           the cache and broker suites again under --release,
#           formatting and lints on that copy, and the benchmark smoke.
#           Needs nothing outside the clone. workload/sim/proto/bench
#           and the prop_* targets need the real external crates and
#           run only online.
# auto    — online when `cargo fetch` succeeds, offline otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-auto}"

online_gate() {
  cargo build --release
  cargo test -q
  cargo fmt --check
  cargo clippy --workspace --all-targets -- -D warnings
  # Coalescing smoke gate: the reduced sweep exits non-zero if the
  # duplicate-fetch ratio with coalescing on exceeds 1.1.
  cargo run -q --release -p bad-bench --bin coalesce_bench -- --smoke
  # Shadow-policy smoke gate: fails if default-rate ghost evaluation
  # costs more than 10% throughput, if the ghost of the live policy
  # diverges from the real cache (regret must be exactly 0), or if no
  # ghost beats live LRU on the scan-pollution workload.
  cargo run -q --release -p bad-bench --bin shadow_overhead -- --smoke
  # Health-engine smoke gate: fails if the full health engine costs
  # more than 10% throughput, if model_drift fires before the regime
  # shift, or if it does not fire within the post-shift window budget.
  cargo run -q --release -p bad-bench --bin health_overhead -- --smoke
  # Autopilot smoke gate: the regime-shift tape must trigger exactly
  # one promotion per shifted segment (no flapping), the stationary
  # control must never switch, and the adaptive run must land within
  # 5 points of the best-in-hindsight fixed policy.
  cargo run -q --release -p bad-bench --bin autopilot_bench -- --smoke
  # Profiler smoke gate: full stage profiling must cost ≤ 10% and
  # sampled (1/64) ≤ 3% on the median per-rep interleaved ratio, and
  # the lock-contention curve must show shards=1 wait strictly
  # dominating shards=8 under the fixed 8-thread tape.
  cargo run -q --release -p bad-bench --bin profile_overhead -- --smoke
  # Hot-key sketch smoke gate: full sketching must cost ≤ 5% and
  # sampled (1/16) ≤ 2% on the median per-rep interleaved ratio, and
  # on the Zipf accuracy tape both the single and the shard-merged
  # top-10 must overlap the exact top-10 in ≥ 9/10 keys with the
  # Metwally bounds intact and the distinct estimate within ±20%.
  cargo run -q --release -p bad-bench --bin sketch_overhead -- --smoke
  # End-to-end benchmark smoke: every workload once, deliveries checked
  # against the benchmark's own reference model.
  benchmark/run.sh --smoke
}

offline_gate() {
  # The eight crates that build with no external dependency once the
  # proptest/rand dev-dependency lines and the prop_* targets are gone.
  local crates=(types telemetry query storage net cache cluster broker)
  local ws=target/offline-check/ws c
  # Assemble a std-only workspace from the tree itself, so the gate
  # runs in a fresh clone: the eight crates, a root manifest listing
  # only their path dependencies, no external dev-dependency lines, no
  # prop_* targets.
  mkdir -p "$ws"
  rm -rf "$ws/crates" "$ws/Cargo.toml"
  mkdir "$ws/crates"
  {
    printf '[workspace]\nmembers = ["crates/*"]\nresolver = "2"\n\n'
    sed -n '/^\[workspace\.package\]/,/^$/p' Cargo.toml
    printf '[workspace.dependencies]\n'
    for c in "${crates[@]}"; do
      printf 'bad-%s = { path = "crates/%s" }\n' "$c" "$c"
    done
  } > "$ws/Cargo.toml"
  for c in "${crates[@]}"; do
    cp -R "crates/$c" "$ws/crates/$c"
    sed -i -E '/^(proptest|rand|rand_distr|criterion)\.workspace = true$/d' \
      "$ws/crates/$c/Cargo.toml"
    rm -f "$ws/crates/$c"/tests/prop_*
  done
  (
    cd "$ws"
    cargo test --offline -q
    # The cache suite again under --release: the thread stress and the
    # scaling guards with debug assertions off. The broker suite too:
    # the fused GET under paper_claims and coalesce as the benchmark
    # builds it.
    cargo test --offline -q --release -p bad-cache
    cargo test --offline -q --release -p bad-broker
    cargo fmt --check
    cargo clippy --offline -q --all-targets -- -D warnings
  )
  benchmark/run.sh --smoke
}

case "$MODE" in
  online) online_gate ;;
  offline) offline_gate ;;
  auto)
    if cargo fetch >/dev/null 2>&1; then
      online_gate
    else
      echo "verify: registry unreachable; running the offline matrix" >&2
      offline_gate
    fi
    ;;
  *)
    echo "usage: $0 [auto|online|offline]" >&2
    exit 2
    ;;
esac
