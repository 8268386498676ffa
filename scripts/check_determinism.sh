#!/usr/bin/env sh
# Multi-salt determinism check, cross-process edition.
#
# digest_oracle_test already reruns every scenario row under several
# in-process SetHashSalt() values. This wrapper additionally proves the
# HERMES_HASH_SALT *environment* path: it runs the rows' profile seeds in
# separate processes under distinct env salts, groups the printed
# `PROFILE <row> <fields>` lines by row, and requires one field string per
# row across every env and in-process salt, and the same rows under every
# env salt. Any difference means some decision depends on hash iteration
# order.
#
# Usage: scripts/check_determinism.sh [build-dir]   (default: build)

set -eu

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/tests/digest_oracle_test"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 2
fi

# Env salts for the separate processes. 0 is the unsalted default; the
# others are arbitrary and distinct from the test's in-process constants.
SALTS="0 0x5bd1e9955bd1e995 0x94d049bb133111eb"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

for salt in $SALTS; do
  echo "== HERMES_HASH_SALT=$salt =="
  if ! HERMES_HASH_SALT="$salt" "$BIN" --gtest_filter='*Profile*' \
      > "$dir/log"; then
    cat "$dir/log"
    echo "FAIL: $BIN failed under HERMES_HASH_SALT=$salt" >&2
    exit 1
  fi
  sed -n 's/^PROFILE //p' "$dir/log" | tee -a "$dir/all"
  sed -n 's/^PROFILE \([^ ]*\) .*/\1/p' "$dir/log" | sort -u > "$dir/names.$salt"
done

first="$(echo "$SALTS" | cut -d' ' -f1)"
if [ ! -s "$dir/names.$first" ]; then
  echo "FAIL: $BIN printed no PROFILE line" >&2
  exit 1
fi
for salt in $SALTS; do
  if ! cmp -s "$dir/names.$first" "$dir/names.$salt"; then
    echo "FAIL: rows under HERMES_HASH_SALT=$salt differ from salt $first:" >&2
    diff "$dir/names.$first" "$dir/names.$salt" >&2 || true
    exit 1
  fi
done

while read -r name; do
  profiles="$(sed -n "s/^$name //p" "$dir/all" | sort -u)"
  count="$(printf '%s\n' "$profiles" | grep -c .)"
  if [ "$count" -ne 1 ]; then
    echo "FAIL: expected one $name profile across all salts, got $count:" >&2
    printf '%s\n' "$profiles" >&2
    exit 1
  fi
  echo "OK: $name $profiles"
done < "$dir/names.$first"
