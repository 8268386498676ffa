#!/usr/bin/env sh
# Net non-comment, non-blank lines per top-level directory: the working
# tree (tracked files plus untracked ones that are not ignored) against
# revision REV. Counts C++ sources (.cc, .h, .cpp, .hpp), where `//` lines
# and `/* */` blocks are comments, and scripts (.py, .sh), where `#` lines
# are. Other files (CMake, Markdown, data) do not count.
#
# Usage: scripts/net_lines.sh [REV]   (default: HEAD)
#
# Prints one `<dir> <lines at REV> <lines now> <net>` row per directory
# and a total row.

set -eu

REV="${1:-HEAD}"
DIRS="src tests bench tools examples ledger scripts"

cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$REV^{commit}" > /dev/null || {
  echo "error: $REV is not a revision" >&2
  exit 2
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$REV" | tar -x -C "$tmp"

# Reads file names on stdin and prints their summed code-line count.
count_lines() {
  total=0
  while IFS= read -r f; do
    [ -f "$f" ] || continue
    case "$f" in
      *.cc | *.h | *.cpp | *.hpp) lang=c ;;
      *.py | *.sh) lang=hash ;;
      *) continue ;;
    esac
    n=$(awk -v lang="$lang" '
      function code(s) { sub(/^[ \t]+/, "", s); return s != "" }
      lang == "hash" { if (code($0) && $0 !~ /^[ \t]*#/) n++; next }
      {
        line = $0
        if (in_block) {
          end = index(line, "*/")
          if (end == 0) next
          in_block = 0
          line = substr(line, end + 2)
        }
        sub(/^[ \t]+/, "", line)
        while (substr(line, 1, 2) == "/*") {
          end = index(substr(line, 3), "*/")
          if (end == 0) { in_block = 1; line = ""; break }
          line = substr(line, end + 4)
          sub(/^[ \t]+/, "", line)
        }
        if (line != "" && substr(line, 1, 2) != "//") n++
      }
      END { print n + 0 }' "$f")
    total=$((total + n))
  done
  echo "$total"
}

sum_before=0
sum_after=0
for d in $DIRS; do
  before=0
  if [ -d "$tmp/$d" ]; then
    before=$(cd "$tmp" && find "$d" -type f | count_lines)
  fi
  after=$(git ls-files --cached --others --exclude-standard -- "$d" |
            count_lines)
  printf '%-9s %7d %7d %+7d\n' "$d" "$before" "$after" $((after - before))
  sum_before=$((sum_before + before))
  sum_after=$((sum_after + after))
done
printf '%-9s %7d %7d %+7d\n' total "$sum_before" "$sum_after" \
  $((sum_after - sum_before))
