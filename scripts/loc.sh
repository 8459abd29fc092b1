#!/usr/bin/env bash
# Count the first-party Rust lines under crates/ and src/, split into
# test and non-test lines.
#
# A file under a `tests/` directory is all test lines. In any other
# file, the lines from its first `#[cfg(test)]` to its end (the unit
# test module at the tail) are test lines, and the rest are non-test.
#
# Usage: scripts/loc.sh [FILE...]
# With no arguments it counts every .rs file under crates/ and src/;
# with arguments it counts just those files.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    mapfile -t files < <(find crates src -name '*.rs' | LC_ALL=C sort)
fi

for f in "${files[@]}"; do
    case "$f" in
    */tests/* | tests/*) printf '0 %s\n' "$(wc -l < "$f")" ;;
    *) awk '/^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } { if (t) test++; else code++ }
            END { printf "%d %d\n", code, test }' "$f" ;;
    esac
done | awk '{ code += $1; test += $2 }
    END { printf "non-test %d\ntest     %d\ntotal    %d\n", code, test, code + test }'
