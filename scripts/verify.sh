#!/usr/bin/env bash
# Verification gate. Needs nothing outside the clone: the workspace has
# no external dependency and Cargo.lock is committed.
#
#   scripts/verify.sh
#
# Runs, in order: the zero-dependency guard, a syntax check of every
# script under scripts/, the release build and every
# crate's tests, the cache, broker, cluster, query, storage, types,
# telemetry, proto, sim, net and workload suites again under --release,
# one tiny Fig. 7 run, formatting, lints and rustdoc, the benchmark
# package's own unit tests,
# formatting and lints (it is a workspace of its own, which the
# workspace-wide commands never see), and the benchmark smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

# Zero external dependencies: every package and dependency cargo
# resolves is a path in this repository (a registry or git one carries
# a non-null "source"). A metadata failure (say, an uncached registry
# dependency) aborts here under set -e.
meta=$(cargo metadata --offline --locked --format-version 1)
if grep -q '"source":"' <<<"$meta"; then
  echo "verify: a dependency outside the repository crept in:" >&2
  grep -o '"source":"[^"]*"' <<<"$meta" | sort -u >&2
  exit 1
fi

for script in scripts/*.sh; do
  bash -n "$script"
done

cargo build --release --locked
cargo test -q --locked
# The suites of the crates the benchmark drives, again under --release:
# the cache's thread stress and scaling guards with debug assertions
# off, the fused GET under paper_claims and miss_path, the cluster,
# query, storage and types oracles and property loops as the benchmark
# builds them (the enrichment join's index lives in storage), and the
# telemetry crate's profiler fold, histogram fold and sketch recorder,
# which sit on the benchmark's observed hot path, and the threaded
# runtime's maintenance path and the simulator's observer attach, which
# wire those observers, and the network model, whose delivery latency
# every GET computes, with the workload generators (Zipf popularity,
# ON/OFF churn) the simulator draws from.
cargo test -q --release --locked -p bad-cache -p bad-broker -p bad-cluster -p bad-query \
  -p bad-storage -p bad-types -p bad-telemetry -p bad-proto -p bad-sim -p bad-net \
  -p bad-workload
# Fig. 7 replays a trace through the deployed actors on the seeded
# executor; once, at a tiny scale, from a scratch directory so that
# target/experiments keeps the outputs of a full run.
root=$PWD
smoke=$(mktemp -d)
(cd "$smoke" && BAD_SUBSCRIBERS=25 BAD_MINUTES=10 BAD_SEEDS=1 \
  cargo run -q --release --locked --manifest-path "$root/Cargo.toml" -p bad-bench --bin fig7 \
  >fig7.log 2>&1) || { cat "$smoke/fig7.log" >&2; exit 1; }
rm -rf "$smoke"
cargo fmt --check
cargo clippy --locked --workspace --all-targets -- -D warnings
# A dangling or private intra-doc link (say, to an item a change
# deleted) fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked
# The benchmark package, built where benchmark/run.sh builds it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target/benchmark}"
cargo test -q --locked --manifest-path benchmark/Cargo.toml
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --locked --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
# End-to-end benchmark smoke: every workload once, deliveries checked
# against the benchmark's own reference model.
benchmark/run.sh --smoke
