#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh [--seed N]                  every workload, end-to-end metrics
#   benchmark/run.sh --traced [--seed N]         every workload, per-layer metrics
#   benchmark/run.sh --check-repeat [--seed N]   the end-to-end set twice, compared
#   benchmark/run.sh --smoke [--traced]          1/100 inputs, 3 jobs each
#   benchmark/run.sh --compare A.json B.json     two result files
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                one workload, one result line
#   benchmark/run.sh --reduce SPANS.jsonl        a span file back to its table
#
# See README.md beside this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/hurricane-benchmark"
for arg in "$@"; do
  case "$arg" in
    --workload | --reduce) exec "$bin" --out-dir "$here/out" "$@" ;;
  esac
done
exec python3 "$here/suite.py" --bin "$bin" "$@"
