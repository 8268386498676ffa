#!/usr/bin/env sh
# Runs the routing microbenchmarks and emits BENCH_routing.json (google-
# benchmark JSON; see EXPERIMENTS.md "Routing cost"). Exits non-zero when
# the output holds no benchmark results (e.g. FILTER matched nothing).
#
# Usage: scripts/bench_routing.sh
#   BUILD_DIR  cmake build tree containing bench/ (default: build)
#   OUT        output JSON path (default: BENCH_routing.json in repo root)
#   FILTER     --benchmark_filter regex (default: all benchmarks)
#   REPS       --benchmark_repetitions (default: 1)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_routing.json}"
FILTER="${FILTER:-.}"
REPS="${REPS:-1}"
BIN="$BUILD_DIR/bench/bench_micro_routing"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (run: cmake -B $BUILD_DIR && cmake --build $BUILD_DIR)" >&2
  exit 1
fi

"$BIN" \
  --benchmark_filter="$FILTER" \
  --benchmark_repetitions="$REPS" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json
# The binary exits 0 even when FILTER matches nothing; every result entry
# carries a "run_name".
if ! grep -q '"run_name"' "$OUT" 2>/dev/null; then
  echo "error: $OUT holds no benchmark results (FILTER='$FILTER')" >&2
  exit 1
fi
echo "wrote $OUT"
