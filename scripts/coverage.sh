#!/usr/bin/env sh
# Line coverage of src/ under the test suite.
#
# Configures a Debug `--coverage -O0` tree, builds it, runs ctest (only
# the tests labelled LABEL when one is given), then runs
# `gcov --json-format --stdout` over every object's counts. A header is
# compiled into many translation units, so line counts are merged per
# (file, line) across all of them: a line is executable if any unit
# compiled it and executed if any unit ran it.
#
# Prints the executed share of src/ and the ten files with the most
# unexecuted lines, and writes the per-file table to BUILD_DIR/coverage.txt.
# Exits with ctest's status, after reporting.
#
# Usage: scripts/coverage.sh [BUILD_DIR] [LABEL]   (default: build-coverage)

set -eu

BUILD_DIR="${1:-build-coverage}"
LABEL="${2:-}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS="--coverage"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Counts accumulate across runs; start from zero.
find "$BUILD_DIR" -name '*.gcda' -delete
status=0
(cd "$BUILD_DIR" && ctest -j "$(nproc)" --output-on-failure ${LABEL:+-L "$LABEL"}) ||
  status=$?

# Every object, run or not: gcov counts an object without a .gcda as
# never executed, so code no test reaches still counts as executable.
json="$BUILD_DIR/gcov.json"
find "$BUILD_DIR" -name '*.gcno' -print0 |
  xargs -0 gcov --json-format --stdout > "$json" 2> /dev/null

python3 - "$ROOT" "$json" "$BUILD_DIR/coverage.txt" <<'EOF'
import json
import os
import sys

root, json_path, table_path = sys.argv[1:4]
src = os.path.join(root, "src") + os.sep

# (file, line) -> executed in any translation unit.
executed = {}
decoder = json.JSONDecoder()
with open(json_path) as f:
    text = f.read()
pos = 0
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos == len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    cwd = doc.get("current_working_directory", "")
    for entry in doc["files"]:
        path = os.path.normpath(os.path.join(cwd, entry["file"]))
        if not path.startswith(src):
            continue
        for line in entry["lines"]:
            key = (path[len(root) + 1:], line["line_number"])
            executed[key] = executed.get(key, False) or line["count"] > 0

per_file = {}
for (path, _), ran in executed.items():
    total, hit = per_file.get(path, (0, 0))
    per_file[path] = (total + 1, hit + int(ran))
if not per_file:
    sys.exit("coverage: gcov reported no line of src/")

total = sum(t for t, _ in per_file.values())
hit = sum(h for _, h in per_file.values())
by_missed = sorted(per_file.items(), key=lambda kv: (kv[1][1] - kv[1][0], kv[0]))
with open(table_path, "w") as out:
    out.write("unexecuted executed total file\n")
    for path, (t, h) in by_missed:
        out.write(f"{t - h} {h} {t} {path}\n")

print(f"src/ lines executed: {hit} of {total} ({100.0 * hit / total:.1f}%)")
print("most unexecuted lines (unexecuted, executed/total):")
for path, (t, h) in by_missed[:10]:
    print(f"  {t - h:4d}  {h}/{t}  {path}")
print(f"per-file table: {table_path}")
EOF

exit "$status"
