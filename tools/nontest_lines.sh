#!/usr/bin/env bash
# Print the non-test line count of every crate under crates/, and a total.
#
# A file's non-test lines are the lines before its first inline
# `#[cfg(test)]` item (all of them when it has none). An out-of-line
# `#[cfg(test)] mod tests;` pair is skipped, not a stop: the file goes on
# after it. Files named `tests.rs` hold only tests and count zero. Only
# `crates/*/src` is counted; integration tests, benches and examples live
# outside it.
#
# Informational only: it prints the table and always exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
printf '%-10s %6s\n' crate lines
for dir in crates/*/; do
  crate=$(basename "$dir")
  [[ -d "$dir/src" ]] || continue
  n=0
  while IFS= read -r file; do
    [[ $(basename "$file") == tests.rs ]] && continue
    count=$(awk '
      /^[[:space:]]*#\[cfg\(test\)\]/ {
        if ((getline line) > 0 && line ~ /^[[:space:]]*mod [a-z_]+;/) next
        exit
      }
      { n++ }
      END { print n + 0 }' "$file")
    n=$((n + count))
  done < <(find "$dir/src" -name '*.rs' | sort)
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
