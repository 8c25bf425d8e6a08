#!/usr/bin/env bash
# Guard against monolith regrowth: no Rust source file under crates/*/src
# may exceed MAX_LINES. There are no per-file exceptions.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_LINES=900

fail=0
while IFS= read -r file; do
  lines=$(wc -l <"$file")
  if ((lines > MAX_LINES)); then
    echo "FAIL: $file is $lines lines (limit $MAX_LINES)" >&2
    fail=1
  fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

if ((fail)); then
  echo "Split oversized files into focused modules (see ARCHITECTURE.md)." >&2
  exit 1
fi
echo "file-size guard: all files within limits"
