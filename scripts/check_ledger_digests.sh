#!/usr/bin/env sh
# Ledger digest check: a change that is meant to keep behaviour must leave
# the ledger's decision and placement digests equal to the reference row
# of ledger/README.md ("decision / placement digest"). This runs every
# workload named in that table once (--mode=e2e --seconds=1; the digests
# do not depend on --seconds) and compares the printed
# `decision_digest D  placement_digest P` line with the README's row. A
# bench_ledger run that fails its own correctness gate fails the check
# too.
#
# Usage: scripts/check_ledger_digests.sh BUILD_DIR
#   BUILD_DIR holds bench_ledger, built from ledger/:
#     cmake -S ledger -B build-ledger -DCMAKE_BUILD_TYPE=Release
#     cmake --build build-ledger --target bench_ledger

set -eu

if [ "$#" -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
BIN="$1/bench_ledger"
README="$(dirname "$0")/../ledger/README.md"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found — build the ledger first" >&2
  exit 2
fi

# One `workload decision placement` line per column of the digest row,
# with the workload names from the header of the table that holds it.
expected="$(awk -F'|' '
  /^\| metric \|/ { for (i = 3; i < NF; i++) head[i] = $i }
  /^\| decision \/ placement digest \|/ {
    for (i = 3; i < NF; i++) {
      w = head[i]; d = $i
      gsub(/[` ]/, "", w); gsub(/[` ]/, "", d)
      split(d, pair, "/")
      print w, pair[1], pair[2]
    }
    exit
  }' "$README")"
if [ -z "$expected" ]; then
  echo "FAIL: no decision / placement digest row in $README" >&2
  exit 1
fi

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

status=0
echo "$expected" > "$dir/expected"
while read -r workload decision placement; do
  if ! "$BIN" --workload="$workload" --mode=e2e --seconds=1 \
      > "$dir/log" 2>&1; then
    cat "$dir/log" >&2
    echo "FAIL: $workload: bench_ledger failed" >&2
    status=1
    continue
  fi
  got="$(awk '/^decision_digest / { print $2, $4 }' "$dir/log")"
  if [ "$got" != "$decision $placement" ]; then
    echo "FAIL: $workload: decision / placement digest ${got:-missing}," \
      "README has $decision $placement" >&2
    status=1
  else
    echo "OK: $workload $got"
  fi
done < "$dir/expected"
exit "$status"
