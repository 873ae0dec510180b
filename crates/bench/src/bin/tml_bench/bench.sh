#!/usr/bin/env bash
# Builds the `tml` program and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash crates/bench/src/bin/tml_bench/bench.sh run --seed 1
#   bash crates/bench/src/bin/tml_bench/bench.sh --workload scc-check --seed 1 --seconds 10 --trace 0
#
# `tml_bench` is a binary of the `tml-bench` package, so one workspace
# build into $CARGO_TARGET_DIR (default: target/ at the root) puts it next
# to `tml`, where it looks for the program.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p tml-cli -p tml-bench --bin tml --bin tml_bench >&2
exec "$target/release/tml_bench" "$@"
